package obs

import (
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	var g Gauge
	g.Add(3)
	g.Add(-1)
	if got := g.Load(); got != 2 {
		t.Fatalf("gauge = %d, want 2", got)
	}
	g.Set(9)
	if got := g.Load(); got != 9 {
		t.Fatalf("gauge = %d, want 9", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 0}, {2, 1}, {4, 1}, {5, 2}, {16, 2}, {17, 3},
		{64, 3}, {65, 4}, {1 << 62, 31}, {1<<62 + 1, 32}, {1<<63 - 1, 32},
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	var h Histogram
	h.Observe(3)
	h.Observe(100)
	h.Observe(100)
	if got := h.Count(); got != 3 {
		t.Fatalf("count = %d, want 3", got)
	}
	if got := h.Sum(); got != 203 {
		t.Fatalf("sum = %d, want 203", got)
	}
	snap := h.Snapshot()
	if snap[1] != 1 || snap[4] != 2 {
		t.Fatalf("snapshot = %v", snap)
	}
}

// TestRecordAllocFree is the gate the tentpole promises: counter
// increments, gauge moves, histogram observations, and the unarmed tracer
// check every un-armed daemon takes per request are all 0 allocs/op, so
// instrumentation cannot perturb the PR 5 hot-path allocation budgets. An
// armed tracer timing a request that stays under the threshold allocates
// nothing either.
func TestRecordAllocFree(t *testing.T) {
	var c Counter
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Errorf("Counter.Inc allocates %v/op, want 0", n)
	}
	var g Gauge
	if n := testing.AllocsPerRun(1000, func() { g.Add(1) }); n != 0 {
		t.Errorf("Gauge.Add allocates %v/op, want 0", n)
	}
	var h Histogram
	v := int64(1)
	if n := testing.AllocsPerRun(1000, func() { h.Observe(v); v += 97 }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v/op, want 0", n)
	}
	unarmed := NewTracer("memo@x", 0, 0, 8)
	var q wire.Request
	if n := testing.AllocsPerRun(1000, func() {
		if unarmed.Begin(&q).Timed() {
			t.Fatal("unarmed tracer timed a request")
		}
	}); n != 0 {
		t.Errorf("unarmed Tracer.Begin allocates %v/op, want 0", n)
	}
	armed := NewTracer("memo@x", 0, time.Hour, 8)
	resp := wire.OK()
	if n := testing.AllocsPerRun(1000, func() {
		q := wire.Request{Op: wire.OpPut}
		armed.End(&q, armed.Begin(&q), resp, wire.Span{Layer: "memo", Op: "put"})
	}); n != 0 {
		t.Errorf("below-threshold Tracer.Begin/End allocates %v/op, want 0", n)
	}
	if armed.Ring().Recorded() != 0 {
		t.Fatal("below-threshold requests were recorded")
	}
}

func TestRegistryProm(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("demo_ops_total", "ops so far")
	c.Add(7)
	g := &Gauge{}
	g.Set(3)
	r.RegisterGauge("demo_depth", "queue depth", map[string]string{"q": "a"}, g)
	h := r.Histogram("demo_latency_ns", "latency")
	h.Observe(2)
	h.Observe(1000)
	r.RegisterCollector(func(e *Emitter) {
		e.Gauge("demo_dynamic", "per-instance", map[string]string{"id": "1"}, 42)
	})

	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE demo_ops_total counter",
		"demo_ops_total 7",
		`demo_depth{q="a"} 3`,
		"# TYPE demo_latency_ns histogram",
		`demo_latency_ns_bucket{le="4"} 1`,
		`demo_latency_ns_bucket{le="1024"} 2`,
		`demo_latency_ns_bucket{le="+Inf"} 2`,
		"demo_latency_ns_sum 1002",
		"demo_latency_ns_count 2",
		`demo_dynamic{id="1"} 42`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// Every sample line parses as "name[{labels}] value".
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Errorf("unparsable sample line %q", line)
		}
	}
}

func TestRegistryHistogramLabels(t *testing.T) {
	r := NewRegistry()
	h := &Histogram{}
	h.Observe(1)
	r.RegisterHistogram("lab_hist", "", map[string]string{"k": "v"}, h)
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `lab_hist_bucket{k="v",le="1"} 1`) {
		t.Fatalf("labeled histogram bucket malformed:\n%s", b.String())
	}
}

func TestRegistryKindClash(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge should panic")
		}
	}()
	r.Gauge("x_total", "")
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("snap_total", "")
	c.Add(5)
	h := r.Histogram("snap_ns", "")
	h.Observe(10)
	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d series, want 2", len(snap))
	}
	if snap[0].Name != "snap_total" || *snap[0].Samples[0].Value != 5 {
		t.Fatalf("counter snapshot wrong: %+v", snap[0])
	}
	hj := snap[1].Samples[0].Hist
	if hj == nil || hj.Count != 1 || hj.Sum != 10 {
		t.Fatalf("histogram snapshot wrong: %+v", snap[1])
	}
}

// TestTracerSlowRetention pins "slow" as a retention rule of the one trace
// ring: an unsampled request over the threshold leaves one slow one-span
// sample (and one OnSlow call), one under it leaves nothing, and an entry
// request gets a trace ID either way while a relay hop stamps none. The
// ring keeps the newest samples.
func TestTracerSlowRetention(t *testing.T) {
	type slowCall struct {
		trace uint64
		sp    wire.Span
	}
	var logged []slowCall
	tr := NewTracer("memo@a", 0, time.Nanosecond, 4)
	tr.OnSlow(func(trace uint64, sp wire.Span) { logged = append(logged, slowCall{trace, sp}) })
	var ids []uint64
	for i := 0; i < 6; i++ {
		q := &wire.Request{Op: wire.OpGet, FolderID: 2, TraceHop: 1}
		sc := tr.Begin(q)
		if !sc.Timed() || q.TraceID == 0 || q.Spans != nil {
			t.Fatalf("armed Begin: timed=%v trace=%x spans=%v", sc.Timed(), q.TraceID, q.Spans)
		}
		time.Sleep(time.Microsecond)
		if got := tr.End(q, sc, wire.OK(), wire.Span{Layer: "memo", Op: "get", Folder: 2}); got.Spans != nil {
			t.Fatal("unsampled End returned spans")
		}
		ids = append(ids, q.TraceID)
	}
	ring := tr.Ring()
	if ring.Recorded() != 6 || ring.SlowRecorded() != 6 {
		t.Fatalf("recorded %d (%d slow), want 6 (6)", ring.Recorded(), ring.SlowRecorded())
	}
	rec := ring.Recent()
	if len(rec) != 4 || rec[0].Trace != ids[5] || rec[3].Trace != ids[2] {
		t.Fatalf("ring order wrong: %+v", rec)
	}
	sp := rec[0].Spans
	if !rec[0].Slow || len(sp) != 1 || sp[0].Node != "memo@a" || sp[0].Hop != 1 || sp[0].Folder != 2 || sp[0].Dur <= 0 {
		t.Fatalf("slow sample wrong: %+v", rec[0])
	}
	if len(logged) != 6 || logged[5].trace != ids[5] || logged[5].sp.Node != "memo@a" {
		t.Fatalf("OnSlow saw %+v", logged)
	}
	// A relay hop never stamps, but a slow request its entry node left
	// traceless still gets a record under a fresh ID.
	q := &wire.Request{Op: wire.OpGet, Hops: 1}
	sc := tr.Begin(q)
	time.Sleep(time.Microsecond)
	tr.End(q, sc, wire.OK(), wire.Span{Layer: "memo"})
	if q.TraceID != 0 || ring.Recorded() != 7 || ring.Recent()[0].Trace == 0 {
		t.Fatalf("traceless relay request: trace=%x recorded=%d newest=%+v", q.TraceID, ring.Recorded(), ring.Recent()[0])
	}

	fast := NewTracer("memo@a", 0, time.Hour, 4)
	q = &wire.Request{Op: wire.OpGet}
	fast.End(q, fast.Begin(q), wire.OK(), wire.Span{Layer: "memo"})
	if q.TraceID == 0 || fast.Ring().Recorded() != 0 {
		t.Fatalf("under-threshold request: trace=%x recorded=%d", q.TraceID, fast.Ring().Recorded())
	}
}

// TestNilTracer: a nil tracer records nothing and times nothing of its own,
// but still times a layer span into a set an enclosing wrapper owns — the
// embedded folder server under its memo server.
func TestNilTracer(t *testing.T) {
	var tr *Tracer
	q := &wire.Request{Op: wire.OpGet, Sampled: true}
	if tr.Begin(q).Timed() || q.TraceID != 0 {
		t.Fatal("nil tracer timed or stamped a request")
	}
	set := wire.NewSpanSet()
	q.Spans = set
	sc := tr.Begin(q)
	if !sc.Timed() {
		t.Fatal("nil tracer did not time a span into the enclosing set")
	}
	tr.End(q, sc, wire.OK(), wire.Span{Node: "folder-0@a", Layer: "folder"})
	if set.Len() != 1 {
		t.Fatalf("enclosing set holds %d spans, want 1", set.Len())
	}
	set.Release()
	if tr.Ring() != nil {
		t.Fatal("nil tracer has a ring")
	}
	var ring *TraceRing
	ring.Record(TraceSample{Trace: 1, Spans: []wire.Span{{}}, Slow: true})
	if ring.Recent() != nil || ring.Get(1) != nil || ring.Recorded() != 0 || ring.SlowRecorded() != 0 {
		t.Fatal("nil ring should be inert")
	}
}

func TestNewTraceID(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := 0; i < 100; i++ {
		id := NewTraceID()
		if id == 0 {
			t.Fatal("zero trace id")
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %d in 100 draws", id)
		}
		seen[id] = true
	}
}
