package obs

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

func TestDebugServer(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("dbg_ops_total", "ops")
	c.Add(3)
	ring := NewTraceRing(8)
	ring.Record(TraceSample{Trace: 77, Slow: true, Spans: []wire.Span{{Node: "memo@test", Layer: "memo", Op: "put", Hop: 1}}})
	ring.Record(TraceSample{Trace: 78, Spans: []wire.Span{{Node: "memo@test", Layer: "memo", Op: "get"}}})

	d := NewDebugServer("127.0.0.1:0", []*Registry{r}, WithTraceRing(ring))
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	base := "http://" + d.Addr()

	getStatus := func(path string, want int) (string, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}
	get := func(path string) (string, string) {
		t.Helper()
		return getStatus(path, http.StatusOK)
	}

	metrics, ctype := get("/metrics")
	if !strings.Contains(metrics, "dbg_ops_total 3") {
		t.Errorf("/metrics missing counter:\n%s", metrics)
	}
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Errorf("/metrics content type %q", ctype)
	}

	statusz, ctype := get("/statusz")
	if ctype != "application/json" {
		t.Errorf("/statusz content type %q", ctype)
	}
	var body statuszBody
	if err := json.Unmarshal([]byte(statusz), &body); err != nil {
		t.Fatalf("/statusz not JSON: %v", err)
	}
	if len(body.Metrics) == 0 || body.SlowTot != 1 || body.TraceTot != 2 {
		t.Errorf("/statusz body wrong: %s", statusz)
	}

	tracez := func(query string) []TraceSample {
		t.Helper()
		raw, _ := get("/tracez" + query)
		var tz struct {
			Recent []TraceSample `json:"recent"`
		}
		if err := json.Unmarshal([]byte(raw), &tz); err != nil {
			t.Fatalf("/tracez%s not JSON: %v", query, err)
		}
		return tz.Recent
	}
	if all := tracez(""); len(all) != 2 {
		t.Errorf("/tracez lists %d samples, want 2", len(all))
	}
	if slow := tracez("?slow=1"); len(slow) != 1 || slow[0].Trace != 77 || !slow[0].Slow {
		t.Errorf("/tracez?slow=1 = %+v, want only trace 77", slow)
	}
	if slow := tracez("?trace=78&slow=1"); len(slow) != 0 {
		t.Errorf("/tracez?trace=78&slow=1 = %+v, want none", slow)
	}
	getStatus("/slowz", http.StatusNotFound)

	if pprofIdx, _ := get("/debug/pprof/"); !strings.Contains(pprofIdx, "goroutine") {
		t.Errorf("/debug/pprof/ index looks wrong:\n%s", pprofIdx)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case err := <-d.Done():
		if err != nil {
			t.Fatalf("serve loop ended with %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve loop did not exit after shutdown")
	}
}
