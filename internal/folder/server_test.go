package folder

import (
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/symbol"
	"repro/internal/transport"
	"repro/internal/wire"
)

func newTestServer(t *testing.T) *Server {
	t.Helper()
	s := NewServer(0, "testhost", NewStore())
	t.Cleanup(s.Close)
	return s
}

func TestHandleOps(t *testing.T) {
	s := newTestServer(t)
	k := symbol.K(1)
	k2 := symbol.K(2)

	if r := s.Handle(&wire.Request{Op: wire.OpPing}, never); r.Status != wire.StatusOK {
		t.Fatalf("ping: %+v", r)
	}
	if r := s.Handle(&wire.Request{Op: wire.OpPut, Key: k, Payload: []byte("v")}, never); r.Status != wire.StatusOK {
		t.Fatalf("put: %+v", r)
	}
	if r := s.Handle(&wire.Request{Op: wire.OpGetCopy, Key: k}, never); r.Status != wire.StatusOK || string(r.Payload) != "v" {
		t.Fatalf("get_copy: %+v", r)
	}
	if r := s.Handle(&wire.Request{Op: wire.OpGet, Key: k}, never); r.Status != wire.StatusOK || string(r.Payload) != "v" {
		t.Fatalf("get: %+v", r)
	}
	if r := s.Handle(&wire.Request{Op: wire.OpGetSkip, Key: k}, never); r.Status != wire.StatusEmpty {
		t.Fatalf("get_skip on empty: %+v", r)
	}
	if r := s.Handle(&wire.Request{Op: wire.OpPutDelayed, Key: k, Key2: k2, Payload: []byte("d")}, never); r.Status != wire.StatusOK {
		t.Fatalf("put_delayed: %+v", r)
	}
	if r := s.Handle(&wire.Request{Op: wire.OpPut, Key: k, Payload: nil}, never); r.Status != wire.StatusOK {
		t.Fatalf("trigger put: %+v", r)
	}
	if r := s.Handle(&wire.Request{Op: wire.OpGetSkip, Key: k2}, never); r.Status != wire.StatusOK || string(r.Payload) != "d" {
		t.Fatalf("released value: %+v", r)
	}
	// Alt and watch argument validation.
	if r := s.Handle(&wire.Request{Op: wire.OpAltTake}, never); r.Status != wire.StatusErr {
		t.Fatalf("alt with no keys: %+v", r)
	}
	if r := s.Handle(&wire.Request{Op: wire.OpWatch}, never); r.Status != wire.StatusErr {
		t.Fatalf("watch with no keys: %+v", r)
	}
	// Register is a memo-server op, not a folder-server op.
	if r := s.Handle(&wire.Request{Op: wire.OpRegister}, never); r.Status != wire.StatusErr {
		t.Fatalf("register: %+v", r)
	}
}

func TestHandleCanceledGetReportsError(t *testing.T) {
	s := newTestServer(t)
	cancel := make(chan struct{})
	got := make(chan *wire.Response, 1)
	go func() {
		got <- s.Handle(&wire.Request{Op: wire.OpGet, Key: symbol.K(5)}, cancel)
	}()
	time.Sleep(10 * time.Millisecond)
	close(cancel)
	select {
	case r := <-got:
		if r.Status != wire.StatusErr {
			t.Fatalf("canceled get: %+v", r)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancel ignored")
	}
}

// TestStandaloneTracerRecordsSlow: a standalone folder server with a tracer
// is its own node — it stamps entry requests and records each one over the
// threshold as a one-span slow sample under its own name. An embedded server
// (no tracer) records nothing: its memo server's span covers its work.
func TestStandaloneTracerRecordsSlow(t *testing.T) {
	tr := obs.NewTracer("folder-0@testhost", 0, time.Nanosecond, 0)
	s := NewServer(0, "testhost", NewStore(), WithTracer(tr))
	t.Cleanup(s.Close)
	q := &wire.Request{Op: wire.OpPut, Key: symbol.K(5), Payload: []byte("v")}
	if r := s.Handle(q, never); r.Status != wire.StatusOK {
		t.Fatalf("put: %+v", r)
	}
	if q.TraceID == 0 {
		t.Fatal("standalone entry request got no trace ID")
	}
	got := tr.Ring().Get(q.TraceID)
	if len(got) != 1 || !got[0].Slow || len(got[0].Spans) != 1 {
		t.Fatalf("want one slow one-span sample, got %+v", got)
	}
	if sp := got[0].Spans[0]; sp.Node != "folder-0@testhost" || sp.Layer != "folder" || sp.Op != wire.OpPut.String() || sp.Dur <= 0 {
		t.Fatalf("slow span wrong: %+v", sp)
	}

	embedded := newTestServer(t)
	q = &wire.Request{Op: wire.OpPut, Key: symbol.K(5), Payload: []byte("v")}
	if r := embedded.Handle(q, never); r.Status != wire.StatusOK || q.TraceID != 0 {
		t.Fatalf("embedded put: %+v trace=%x", r, q.TraceID)
	}
}

// TestServeOverTCP drives the standalone wire-protocol server (the
// cmd/folderserverd deployment) over a real TCP socket.
func TestServeOverTCP(t *testing.T) {
	s := newTestServer(t)
	l, err := transport.NewTCP().Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go s.Serve(l)

	dial := func() transport.Conn {
		t.Helper()
		conn, err := transport.NewTCP().Dial(l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn
	}
	// Each call travels as a one-entry batch frame — the only framing the
	// server accepts.
	c := rpc.NewConn(dial(), rpc.Policy{})
	t.Cleanup(func() { c.Close() })
	do := func(c *rpc.Conn, q *wire.Request) *wire.Response {
		t.Helper()
		resp, err := c.Call(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	k := symbol.K(3, 1)
	if r := do(c, &wire.Request{Op: wire.OpPut, Key: k, Payload: []byte("tcp")}); r.Status != wire.StatusOK {
		t.Fatalf("put: %+v", r)
	}
	if r := do(c, &wire.Request{Op: wire.OpGet, Key: k}); r.Status != wire.StatusOK || string(r.Payload) != "tcp" {
		t.Fatalf("get: %+v", r)
	}

	// A malformed request gets an error response, not a dropped connection.
	raw := dial()
	if err := raw.Send(wire.AppendBatch(nil, wire.BatchRequest, []wire.BatchEntry{{ID: 1, Msg: []byte{0xFF, 0xFF}}})); err != nil {
		t.Fatal(err)
	}
	buf, err := raw.Recv()
	if err != nil {
		t.Fatal(err)
	}
	kind, entries, err := wire.DecodeBatch(buf)
	if err != nil || kind != wire.BatchResponse || len(entries) != 1 || entries[0].ID != 1 {
		t.Fatalf("malformed request reply: %v %+v %v", kind, entries, err)
	}
	if resp, err := wire.DecodeResponse(entries[0].Msg); err != nil || resp.Status != wire.StatusErr {
		t.Fatalf("malformed request response: %+v %v", resp, err)
	}

	// Concurrent connections against one server.
	var wg sync.WaitGroup
	for i := 3; i < 9; i++ {
		wg.Add(1)
		conn := dial()
		go func(i int) {
			defer wg.Done()
			c := rpc.NewConn(conn, rpc.Policy{})
			defer c.Close()
			key := symbol.K(symbol.Symbol(i))
			for j := 0; j < 20; j++ {
				if _, err := c.Call(&wire.Request{Op: wire.OpPut, Key: key, Payload: []byte{byte(j)}}, nil); err != nil {
					t.Error(err)
					return
				}
				if _, err := c.Call(&wire.Request{Op: wire.OpGet, Key: key}, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()

	if s.Store().MemoCount() != 0 {
		t.Fatalf("memos left: %d", s.Store().MemoCount())
	}
	if got := s.String(); got == "" {
		t.Fatal("empty String()")
	}
}
