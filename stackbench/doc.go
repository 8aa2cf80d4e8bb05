// Command stackbench is the repository's benchmark: it boots the real D-Memo
// stack in one process — a memo server per host with its folder servers,
// built through memoserver.NewWithDialer, core.New, the simulated transport
// at zero latency or TCP on 127.0.0.1 — and drives it through core.Memo
// with two closed-loop callers, each on its own connection: a caller sends
// its next request only when the previous one has returned, as D-Memo
// callers do. Nothing sleeps on the measured path.
//
// Run it from the repository root; run.sh builds it first, keeping the build
// cache, binary, scratch directories and result files under .bench_build:
//
//	bash stackbench/run.sh --workload jobjar --seed 1 --seconds 10 --trace 0
//	bash stackbench/sweep.sh <dir> <runs> <seconds> <workload>...
//
// The last line of output is one JSON object: correct, attempted, failed
// and the metrics. --trace 0 reports the end-to-end metrics; --trace 1 the
// per-layer ledger. Each run also writes a result file with its environment
// stamp (nproc, GOMAXPROCS, Go version, commit, kernel, the filesystem and
// fsync policy of the ladder's log, transport and seed), sample counts,
// the source of each per-layer figure, and for traced runs a span dump.
// -spread <dir> summarizes a directory of untraced result files: the median
// and quartile spread of every end-to-end metric against BENCHMARK.json.
//
// # Workloads
//
// All three use hosts a, b and c of equal cost, folder servers 0, 1 and 2
// on them, 64-byte memos, and --seed to generate every key, value and read
// order; the stack receives only those inputs.
//
//   - jobjar: zero-latency simulated transport, in-memory folders. Both
//     callers enter at a; a round is Put(k) then Get(k) on 64 keys a third
//     of which each folder server holds, so a third of requests are served
//     locally and two thirds forwarded one hop. Every fourth round first
//     reads one of 64 preloaded folders with GetCopy. Nearly all the time
//     is the per-request handoff chain (core, memo-server dispatch, rpc
//     batcher and mux, thread cache, wire); the store is a few percent and
//     there is no disk or kernel cost. Collapsing the handoff chain shows
//     here.
//   - futures: the same transport and in-memory folders, with a large
//     read working set beside the small jobjar one: set-up preloads 4,096
//     future folders, a third per server, each holding one 256-byte memo,
//     and a round is six GetCopy calls on seeded futures, then a jobjar
//     put/get. Reads dominate, so a lock or store change that speeds writes
//     but stalls readers shows in copy_p90_us, and copy_p50_us carries the
//     codec and store cost of the read path.
//   - relay: TCP on 127.0.0.1 between the three nodes. Caller A enters at
//     a and B at b, in strict ping-pong: A puts a ping into a folder on c;
//     B, parked in Get(ping), wakes and puts a pong into a folder on a,
//     where A is parked in Get(pong). One request is in flight per round,
//     every get parks and wakes, every put crosses a socket and a peer
//     link. This is the latency path of a dataflow program; it bypasses
//     both throughput under concurrency and durability. Every fourth round
//     A first reads one of 64 preloaded folders with GetCopy.
//
// jobjar and relay carry the light GetCopy probe so that the copy metrics,
// like every end-to-end metric, are measured (and never zero) on every
// workload; futures is the workload whose reads matter.
//
// No workload keeps its folders durable. On a 2-CPU virtual machine with a
// shared ext4 disk, fsync's p99 moved between 0.26 and 1.2 ms from one
// three-second window to the next, and a durable futures workload's round
// p99 spread by 0.23 to 1.05 of its median across seeds — with group
// commit, and still 0.23 with fsync off and snapshots disabled — beyond any
// bound a regression check can use. The write-ahead log is therefore
// measured per layer: the ladder's last rung appends and group-commits each
// workload's own records to a standalone log.
//
// # End-to-end metrics
//
// From untraced runs. An op is one API call; a round is one put/get pair,
// in relay the ping put plus the get of its echo. Each run boots, warms and
// measures a fresh stack ten times for a tenth of --seconds each, and
// reports the median over the ten. Timings are the p50 and the p90 of each
// boot's samples. The p90 is the gated tail because on two shared CPUs a
// closed loop's p99 is set by preemptions from outside the process: across
// seeds the p99 spread by 0.07 to 0.73 of its median with the machine's
// other load, the p90 by 0.03 to 0.10, like the p50. The p99 and p999 are
// still reported, ungated, wherever every boot leaves at least ten samples
// beyond them; the sample count behind every timing is in the result file.
//
//	ops_per_s      1/s    higher  ops completed per second
//	round_p50_us   us     lower   round latency; also round_p90_us
//	put_p50_us     us     lower   Put latency; also put_p90_us
//	get_p50_us     us     lower   Get latency; also get_p90_us
//	copy_p50_us    us     lower   GetCopy latency; also copy_p90_us
//	allocs_per_op  count  lower   process-wide mallocs (runtime.MemStats) per op
//	cpu_us_per_op  us     lower   process CPU time (getrusage) per op
//	heap_mb        MB     lower   live heap after each measured boot
//	ok_ratio       ratio  higher  ops that succeeded / ops attempted
//	setup_s        s      lower   boot, registration, preload and warm-up
//
// ok_ratio is the complement of the failed-op share, reported that way
// because a benchmark metric must never read zero; errors and timeouts
// count as failed. Set-up includes the warm-up because peer links dial
// lazily and the thread caches start cold.
//
// Every output is checked: each Get's memo must carry the (caller,
// sequence) stamp of a memo put and not yet taken, with its seed-derived
// filler intact; each GetCopy must return the exact preloaded bytes; each
// relay echo must answer its own ping; after a final drain every folder
// server must hold exactly its preloaded memos. Any mismatch makes the run
// incorrect.
//
// # Per-layer ledger
//
// A traced run measures for half of --seconds on an untraced stack — the
// rate tracing is compared against, the always-on counters, then the layer
// ladder — and for the other half on a stack whose nodes sample every
// request (TraceSample 1, spans from Node.Tracer().Ring()) and whose
// network is wrapped in transport.WithStats and the benchmark's own
// Send-timing connection. Each caller records every op with the trace ID
// its client stamped and the time its request spent in Send; the newest
// 8,192 are joined with the entry nodes' rings when the run ends, and up
// to 512 joined traces are written out. The ladder times the same put/get
// pairs through core.Memo, Client.Do, Node.Dispatch, folder.Server.Handle,
// a standalone folder.Store and a standalone durable.Log Append+Commit.
//
// Each figure, the end-to-end metric it should move, and where:
//
//	core.self_us                 put_p50_us on jobjar (core.Memo p50 less Client.Do p50, ladder)
//	transferable.marshal_ns      put_p50_us on jobjar (workload values, ladder)
//	transferable.unmarshal_ns    copy_p50_us on futures
//	memoserver.client_do_us      round_p50_us on jobjar (Client.Do p50, ladder)
//	memoserver.dispatch_self_us  round_p50_us on jobjar (memo span less children)
//	memoserver.queue_wait_us     round_p90_us, ops_per_s on jobjar (memo span wait)
//	memoserver.link_us           round_p50_us on relay (link span less remote memo span)
//	memoserver.forward_ratio     constant: the request mix (Node.Stats)
//	memoserver.inline_ratio      constant: the request mix (Node.Stats)
//	rpc.entries_per_frame        ops_per_s on jobjar; about 1 on relay
//	rpc.linger_wait_us           round_p50_us on relay (rpc send span wait)
//	rpc.calls_per_op             constant
//	transport.msgs_per_op        ops_per_s on jobjar (transport.WithStats)
//	transport.bytes_per_op       ops_per_s on jobjar
//	transport.send_us            round_p50_us on relay (benchmark's Send timer)
//	pool.miss_ratio              allocs_per_op on jobjar
//	wire.encode_ns               cpu_us_per_op on jobjar (workload requests, ladder)
//	wire.decode_ns               cpu_us_per_op on jobjar
//	threadcache.handoffs_per_op  cpu_us_per_op on jobjar, get_p50_us on relay
//	threadcache.spawn_ratio      get_p90_us on relay
//	folder.op_self_us            copy_p50_us on futures (folder span less lock wait, park, commit)
//	folder.lock_wait_us          copy_p90_us on futures
//	folder.park_us               tracks the peer's put on relay, not the store
//	folder.store_ns              bounds the store's share of round_p50_us on jobjar
//	durable.commit_wait_us       put_p50_us of a durable deployment (Append+Commit, ladder)
//	durable.records_per_fsync    its ops_per_s (ladder)
//	durable.fsync_us             its put_p90_us (ladder)
//	durable.bytes_per_user_byte  its put_p50_us (ladder)
//	runtime.gc_pause_us_per_op   round_p90_us on jobjar
//	obs.trace_overhead           untraced ops_per_s / traced ops_per_s
//	residual_ratio               (op time less every layer's share) / op time
//
// Where a workload does not exercise a layer, its figure comes from the
// ladder on that workload's own inputs and the result file says so: the
// durable figures come from the standalone log (bytes on disk per payload
// byte), and folder.park_us from Gets parked on a standalone store when no
// Get of the workload parked. An op's residual is its wall time less
// core's own time, its request's Send time and the entry node's whole span
// tree; the caller's rpc hop to its entry node records no span, so a
// residual above 10% is reported as that unmeasured layer.
//
// # Earlier tables
//
// The dmemo-bench E11, E13 and E14 tables run over simulated links whose
// 50 µs delays spin-wait, so they mostly measure the simulator. They show
// the paper's shape, not the system's speed; speed claims rest on this
// benchmark.
package main
