package bench

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// preObsE14 is the recorded pre-instrumentation baseline for the E14 table:
// the E13 batched-round-trip rows measured at the commit just before the
// internal/obs metric hooks landed, on the same 1-CPU container the other
// experiment numbers come from. Keyed by caller count.
var preObsE14 = map[int]struct {
	nsOp   float64
	allocs float64
}{
	1:  {112900, 5.005},
	8:  {20410, 2.588},
	64: {3160, 2.101},
}

// E14Overhead quantifies what the observability layer costs the hot path:
// first the primitive record operations in isolation (counter increment,
// gauge add, histogram observe, trace-ID stamp, unarmed tracer check),
// then the full instrumented batched round trip against the recorded
// pre-instrumentation baseline. The instrumented path should stay within
// ~2% ns/op of the baseline with no extra allocs/op.
func E14Overhead(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E14",
		Title: "Instrumentation overhead: metrics + tracing on the hot path",
		Claim: "always-on metrics and span timing cost <=2% round-trip latency and 0 extra allocs/op",
		Columns: []string{
			"measurement", "baseline ns/op", "instrumented ns/op", "baseline allocs/op", "instrumented allocs/op", "overhead",
		},
		Notes: []string{
			"baseline columns are recorded numbers from the pre-instrumentation commit (same workload, same 1-CPU container); see DESIGN.md §10",
			"primitive rows measure the record operation alone (no baseline: they did not exist before this layer)",
		},
	}

	// Primitive record costs, measured by ReadMemStats loops rather than
	// testing.AllocsPerRun so the bench binary needs no testing harness.
	// Each loop also reports allocations, pinning the 0-alloc claim.
	prim := func(name string, fn func()) {
		const iters = 1 << 20
		var ms0, ms1 runtime.MemStats
		fn() // warm once
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&ms1)
		nsOp := float64(elapsed.Nanoseconds()) / iters
		allocsOp := float64(ms1.Mallocs-ms0.Mallocs) / iters
		t.Rows = append(t.Rows, []string{
			name, "-", F(nsOp), "-", F(allocsOp), "-",
		})
	}
	var c obs.Counter
	var g obs.Gauge
	var h obs.Histogram
	// No sampler and no slow threshold: the path every un-armed daemon takes.
	tr := obs.NewTracer("memo@e14", 0, 0, 0)
	var q wire.Request
	prim("counter inc", func() { c.Inc() })
	prim("gauge add", func() { g.Add(1) })
	prim("histogram observe", func() { h.Observe(4096) })
	prim("trace-id stamp", func() { _ = obs.NewTraceID() })
	prim("unarmed tracer check", func() {
		if tr.Begin(&q).Timed() {
			panic("unarmed tracer timed a request")
		}
	})

	// The end-to-end check: the same workload as E13, now running with every
	// rpc-layer metric hook live, against the recorded numbers from the
	// commit just before those hooks existed.
	for _, callers := range []int{1, 8, 64} {
		nsOp, allocsOp, err := measureBatchedRoundTrip(cfg, callers)
		if err != nil {
			return nil, err
		}
		base := preObsE14[callers]
		overhead := nsOp/base.nsOp - 1
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("round trip, %d callers", callers),
			F(base.nsOp), F(nsOp), F(base.allocs), F(allocsOp), Pct(overhead),
		})
	}
	return t, nil
}
