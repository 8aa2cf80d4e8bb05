package main

import (
	"runtime"
	"syscall"
	"time"

	"repro/internal/obs"
)

// metricDef names one reported metric. BENCHMARK.json lists the same names,
// units and directions (a test keeps the two in step).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the figures a user of the system sees, from untraced runs.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher"},
	{"round_p50_us", "us", "lower"},
	{"round_p90_us", "us", "lower"},
	{"put_p50_us", "us", "lower"},
	{"put_p90_us", "us", "lower"},
	{"get_p50_us", "us", "lower"},
	{"get_p90_us", "us", "lower"},
	{"copy_p50_us", "us", "lower"},
	{"copy_p90_us", "us", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"cpu_us_per_op", "us", "lower"},
	{"heap_mb", "MB", "lower"},
	{"ok_ratio", "ratio", "higher"},
	{"setup_s", "s", "lower"},
}

// perLayer are the single-layer figures of the traced run.
var perLayer = []metricDef{
	{"core.self_us", "us", "lower"},
	{"transferable.marshal_ns", "ns", "lower"},
	{"transferable.unmarshal_ns", "ns", "lower"},
	{"memoserver.client_do_us", "us", "lower"},
	{"memoserver.dispatch_self_us", "us", "lower"},
	{"memoserver.queue_wait_us", "us", "lower"},
	{"memoserver.link_us", "us", "lower"},
	{"memoserver.forward_ratio", "ratio", "lower"},
	{"memoserver.inline_ratio", "ratio", "higher"},
	{"rpc.entries_per_frame", "count", "higher"},
	{"rpc.linger_wait_us", "us", "lower"},
	{"rpc.calls_per_op", "count", "lower"},
	{"transport.msgs_per_op", "count", "lower"},
	{"transport.bytes_per_op", "B", "lower"},
	{"transport.send_us", "us", "lower"},
	{"pool.miss_ratio", "ratio", "lower"},
	{"wire.encode_ns", "ns", "lower"},
	{"wire.decode_ns", "ns", "lower"},
	{"threadcache.handoffs_per_op", "count", "lower"},
	{"threadcache.spawn_ratio", "ratio", "lower"},
	{"folder.op_self_us", "us", "lower"},
	{"folder.lock_wait_us", "us", "lower"},
	{"folder.park_us", "us", "lower"},
	{"folder.store_ns", "ns", "lower"},
	{"durable.commit_wait_us", "us", "lower"},
	{"durable.records_per_fsync", "count", "higher"},
	{"durable.fsync_us", "us", "lower"},
	{"durable.bytes_per_user_byte", "ratio", "lower"},
	{"runtime.gc_pause_us_per_op", "us", "lower"},
	{"obs.trace_overhead", "ratio", "lower"},
	{"residual_ratio", "ratio", "lower"},
}

// registry is a flat snapshot of obs.Default: counters and gauges summed
// over their labels, histograms as <name>_count and <name>_sum.
type registry map[string]float64

func snapRegistry() registry {
	out := registry{}
	for _, s := range obs.Default.Snapshot() {
		for _, sm := range s.Samples {
			switch {
			case sm.Hist != nil:
				out[s.Name+"_count"] += float64(sm.Hist.Count)
				out[s.Name+"_sum"] += float64(sm.Hist.Sum)
			case sm.Value != nil:
				out[s.Name] += float64(*sm.Value)
			}
		}
	}
	return out
}

func (r registry) minus(before registry) registry {
	out := registry{}
	for k, v := range r {
		out[k] = v - before[k]
	}
	return out
}

// counters is everything a measured window reads before and after itself.
type counters struct {
	reg                          registry
	dispatches, forwards, inline int64
	handoffs, spawned            int64
	mallocs, gcPauseNS           uint64
	cpu                          time.Duration
}

func snapCounters(st *stack) counters {
	c := counters{reg: snapRegistry()}
	for _, n := range st.nodes {
		ns := n.Stats()
		c.dispatches += ns.LocalOps + ns.Forwards
		c.forwards += ns.Forwards
		c.inline += ns.Inlined
		cs := n.CacheStats()
		c.handoffs += cs.Spawned + cs.Reused
		c.spawned += cs.Spawned
	}
	for i := range hosts {
		cs := st.folderServer(i).CacheStats()
		c.handoffs += cs.Spawned + cs.Reused
		c.spawned += cs.Spawned
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.gcPauseNS = ms.Mallocs, ms.PauseTotalNs
	c.cpu = cpuTime()
	return c
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapMB is the live heap after a full collection.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
