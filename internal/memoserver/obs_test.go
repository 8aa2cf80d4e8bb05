package memoserver

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/internal/adf"
	"repro/internal/obs"
	"repro/internal/symbol"
	"repro/internal/transport"
	"repro/internal/wire"
)

// bootTCPPair starts the twoHostADF cluster over real TCP sockets with the
// given config and returns the nodes (a, b order) plus a wire client per
// host, all registered.
func bootTCPPair(t *testing.T, cfg Config) ([]*Node, []*Client) {
	t.Helper()
	net := newTCPMapped()
	f, err := adf.Parse(twoHostADF)
	if err != nil {
		t.Fatal(err)
	}
	var nodes []*Node
	for _, h := range f.Hosts {
		n := NewWithDialer(h.Name, net, cfg)
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Close()
		}
	})
	dial := func(_, addr string) (transport.Conn, error) { return net.Dial(addr) }
	clients := make([]*Client, len(f.Hosts))
	for i, h := range f.Hosts {
		c, err := DialClient(dial, h.Name, f.App)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if err := c.Register(adf.Format(f)); err != nil {
			t.Fatalf("register on %s: %v", h.Name, err)
		}
		clients[i] = c
	}
	return nodes, clients
}

// TestTracePropagation puts from host b into a folder on host a — a
// two-hop path (client → memo b → memo a → folder 0) — with a threshold low
// enough to make every request slow and sampling off. The entry node stamps
// the trace ID (the client stays traceless) and every hop records one slow
// sample under it: one on b at hop 0, one on a at hop >= 1. Folder 0's work
// runs inside a's memo span, so it adds no record of its own.
func TestTracePropagation(t *testing.T) {
	nodes, clients := bootTCPPair(t, Config{SlowRequestThreshold: time.Nanosecond})

	q := req(wire.OpPut, 0, symbol.K(3, 1), []byte("traced"))
	if resp, err := clients[1].Do(q, nil); err != nil || resp.Status != wire.StatusOK {
		t.Fatalf("put: %+v %v", resp, err)
	}
	if q.TraceID != 0 {
		t.Fatal("client stamped a trace ID; the entry node owns stamping")
	}
	entry := nodes[1].Tracer().Ring().Recent()
	if len(entry) == 0 {
		t.Fatal("entry node recorded nothing")
	}
	id := entry[0].Trace
	for i, want := range []struct {
		node  string
		relay bool
	}{{"memo@a", true}, {"memo@b", false}} {
		got := nodes[i].Tracer().Ring().Get(id)
		if len(got) != 1 {
			t.Fatalf("%s holds %d records for trace %x, want 1: %+v", want.node, len(got), id, got)
		}
		ts := got[0]
		if !ts.Slow || len(ts.Spans) != 1 {
			t.Fatalf("%s record not one slow span: %+v", want.node, ts)
		}
		sp := ts.Spans[0]
		if sp.Node != want.node || sp.Layer != "memo" || sp.Op != wire.OpPut.String() || sp.Folder != 0 {
			t.Fatalf("%s span wrong: %+v", want.node, sp)
		}
		if want.relay != (sp.Hop >= 1) {
			t.Fatalf("%s span hop = %d", want.node, sp.Hop)
		}
	}
}

// TestMetricsScrape boots the TCP cluster durable, drives local and
// forwarded traffic, and scrapes a real debug server's /metrics endpoint:
// every instrumented layer must show up in one exposition.
func TestMetricsScrape(t *testing.T) {
	nodes, clients := bootTCPPair(t, Config{
		DataDir:              t.TempDir(),
		SlowRequestThreshold: time.Millisecond,
	})

	for i := 0; i < 8; i++ {
		k := symbol.K(7, uint32(i))
		if resp, err := clients[1].Do(req(wire.OpPut, 0, k, []byte("x")), nil); err != nil || resp.Status != wire.StatusOK {
			t.Fatalf("put: %+v %v", resp, err)
		}
		if resp, err := clients[0].Do(req(wire.OpGet, 0, k, nil), nil); err != nil || resp.Status != wire.StatusOK {
			t.Fatalf("get: %+v %v", resp, err)
		}
	}

	// The daemons register the process-wide registry (rpc, pool, transport,
	// durable series live there via package init) alongside the node's own
	// collector; serve both like memoserverd does.
	reg := obs.NewRegistry()
	nodes[0].RegisterMetrics(reg)
	debug := obs.NewDebugServer("127.0.0.1:0", []*obs.Registry{obs.Default, reg}, obs.WithTraceRing(nodes[0].Tracer().Ring()))
	if err := debug.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = debug.Shutdown(context.Background()) })

	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", debug.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		"rpc_calls_total",
		"rpc_call_ns_bucket",
		"rpc_batch_entries_count",
		"folder_puts_total",
		"folder_shard_memos",
		"node_forwards_total",
		"pool_gets_total",
		"transport_dials_total",
		"durable_appends_total",
		"durable_fsync_ns_bucket",
	} {
		if !bytes.Contains(body, []byte(series)) {
			t.Errorf("/metrics missing %s", series)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", body)
	}
}
