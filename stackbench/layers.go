package main

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/wire"
)

// residualLimit is the residual share above which the unexplained time is
// reported as an unmeasured layer.
const residualLimit = 0.10

// spanDumpTraces bounds how many joined traces a traced run writes out.
const spanDumpTraces = 512

// runLayers fills the per-layer ledger. The first half of the run measures
// an untraced stack — the ops rate tracing is compared against, the
// always-on counters, then the layer ladder. The second half measures a
// stack whose nodes sample every request and whose network counts and
// times every Send, and joins the nodes' spans with the callers' own op
// records.
func runLayers(res *result, sp spec, seed uint64, d time.Duration, scratch, out string) error {
	res.Source = map[string]string{}
	half := d / 2
	set := func(name, source string, v float64) {
		res.Metrics[name] = v
		res.Source[name] = source
	}

	r1, err := setup(sp, seed, stackConfig{tcp: sp.tcp})
	if err != nil {
		return err
	}
	before := snapCounters(r1.st)
	elapsed := r1.measure(half)
	after := snapCounters(r1.st)
	errs := r1.drain()
	ops1, fails1 := r1.counts()
	plainRate := float64(ops1-fails1) / elapsed.Seconds()
	lr, err := r1.ladder(scratch)
	r1.teardown()
	if err != nil {
		return err
	}
	ops := float64(ops1)
	reg := after.reg.minus(before.reg)
	set("memoserver.forward_ratio", "counters", ratio(float64(after.forwards-before.forwards), float64(after.dispatches-before.dispatches)))
	set("memoserver.inline_ratio", "counters", ratio(float64(after.inline-before.inline), float64(after.dispatches-before.dispatches)))
	set("rpc.entries_per_frame", "counters", ratio(reg["rpc_batch_entries_sum"], reg["rpc_frames_total"]))
	set("rpc.calls_per_op", "counters", reg["rpc_calls_total"]/ops)
	set("pool.miss_ratio", "counters", ratio(reg["pool_misses_total"], reg["pool_gets_total"]))
	handoffs := float64(after.handoffs - before.handoffs)
	set("threadcache.handoffs_per_op", "counters", handoffs/ops)
	set("threadcache.spawn_ratio", "counters", ratio(float64(after.spawned-before.spawned), handoffs))
	set("runtime.gc_pause_us_per_op", "counters", float64(after.gcPauseNS-before.gcPauseNS)/1e3/ops)
	set("durable.records_per_fsync", "ladder", lr.recordsPerFsync)
	set("durable.fsync_us", "ladder", lr.fsyncUS)
	set("durable.bytes_per_user_byte", "ladder", lr.bytesPerUserByte)
	set("durable.commit_wait_us", "ladder", lr.logUS)
	coreSelfUS := lr.coreP50US - lr.clientP50US
	set("core.self_us", "ladder", coreSelfUS)
	set("memoserver.client_do_us", "ladder", lr.clientP50US)
	set("folder.store_ns", "ladder", lr.storeNS)
	set("transferable.marshal_ns", "ladder", lr.marshalNS)
	set("transferable.unmarshal_ns", "ladder", lr.unmarshalNS)
	set("wire.encode_ns", "ladder", lr.encodeNS)
	set("wire.decode_ns", "ladder", lr.decodeNS)
	res.Ladder = map[string]float64{
		"core_memo_p50_us": lr.coreP50US, "client_do_p50_us": lr.clientP50US,
		"node_dispatch_us_per_op": lr.dispatchUS, "folder_handle_us_per_op": lr.handleUS,
		"folder_store_ns_per_op": lr.storeNS, "store_park_wake_us": lr.wakeUS,
		"durable_append_commit_us": lr.logUS,
	}

	r2, err := setup(sp, seed, stackConfig{tcp: sp.tcp, traced: true})
	if err != nil {
		return err
	}
	defer r2.teardown()
	t0 := r2.st.tstats.Snapshot()
	sn0, sns0 := r2.st.sends.n.Load(), r2.st.sends.ns.Load()
	elapsed = r2.measure(half)
	t1 := r2.st.tstats.Snapshot()
	sends, sendNS := r2.st.sends.n.Load()-sn0, r2.st.sends.ns.Load()-sns0
	errs = append(errs, r2.drain()...)
	ops2, fails2 := r2.counts()
	set("obs.trace_overhead", "runs", ratio(plainRate, float64(ops2-fails2)/elapsed.Seconds()))
	set("transport.msgs_per_op", "counters", float64(t1.MessagesSent-t0.MessagesSent)/float64(ops2))
	set("transport.bytes_per_op", "counters", float64(t1.BytesSent-t0.BytesSent)/float64(ops2))
	set("transport.send_us", "counters", ratio(float64(sendNS), float64(sends))/1e3)

	lt, joined, dump := r2.joinSpans(coreSelfUS)
	set("memoserver.dispatch_self_us", "spans", lt.memoSelf.meanUS())
	set("memoserver.queue_wait_us", "spans", lt.memoWait.meanUS())
	set("memoserver.link_us", "spans", lt.linkNet.meanUS())
	set("rpc.linger_wait_us", "spans", lt.rpcLinger.meanUS())
	set("folder.op_self_us", "spans", lt.folderSelf.meanUS())
	set("folder.lock_wait_us", "spans", lt.folderLock.meanUS())
	if lt.park.n > 0 {
		set("folder.park_us", "spans", lt.park.meanUS())
	} else {
		set("folder.park_us", "ladder", lr.wakeUS)
	}
	res.Spans = map[string]float64{
		"memo_self": lt.memoSelf.meanUS(), "memo_queue_wait": lt.memoWait.meanUS(),
		"link_self": lt.linkSelf.meanUS(), "link_less_remote": lt.linkNet.meanUS(),
		"rpc_self": lt.rpcSelf.meanUS(), "rpc_linger": lt.rpcLinger.meanUS(),
		"folder_self": lt.folderSelf.meanUS(), "folder_lock_wait": lt.folderLock.meanUS(),
		"folder_park": lt.park.meanUS(), "durable_commit": lt.commit.meanUS(),
		"residual_per_op": lt.residual.meanUS(),
	}
	residual := ratio(float64(lt.residual.ns), float64(lt.opNS))
	set("residual_ratio", "spans", residual)
	res.Samples["joined_ops"] = joined
	if joined == 0 {
		errs = append(errs, "no traced op joined its spans")
	}
	if residual > residualLimit {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"residual %.0f%% of op time is an unmeasured layer: the caller's rpc hop to its entry node "+
				"(batcher, mux, transport delivery and the server read loop) records no span", 100*residual))
	}
	res.Errors = append(res.Errors, errs...)
	res.Attempts, res.Failures = ops1+ops2, fails1+fails2
	name := fmt.Sprintf("%s-seed%d-spans-%d.json", sp.name, seed, time.Now().UnixNano())
	return writeJSON(filepath.Join(out, name), dump)
}

// tracedOp is one caller op joined with the spans its entry node recorded.
type tracedOp struct {
	Kind   string      `json:"kind"`
	DurNS  int64       `json:"dur_ns"`
	SendNS int64       `json:"send_ns"`
	Spans  []wire.Span `json:"spans"`
}

// joinSpans matches the callers' newest ops with the trace rings of their
// entry nodes and folds every joined op into per-layer totals.
func (r *runner) joinSpans(coreSelfUS float64) (layerTimes, int, []tracedOp) {
	byTrace := map[uint64][]wire.Span{}
	for _, h := range r.sp.entries {
		for _, ts := range r.st.nodes[h].Tracer().Ring().Recent() {
			for _, s := range ts.Spans {
				if s.Layer == "memo" && s.Hop == 0 {
					byTrace[ts.Trace] = ts.Spans
					break
				}
			}
		}
	}
	return foldOps(r.callers, byTrace, coreSelfUS)
}

// foldOps folds each caller op that has spans into the layer totals. An
// op's residual is its wall time less core's own time (from the ladder),
// the time its request spent in Send on the caller's connection, and the
// entry node's whole span tree.
func foldOps(callers []*caller, byTrace map[uint64][]wire.Span, coreSelfUS float64) (lt layerTimes, joined int, dump []tracedOp) {
	coreNS := int64(coreSelfUS * 1e3)
	kinds := [...]string{opPut: "put", opGet: "get", opCopy: "get_copy"}
	for _, c := range callers {
		for _, o := range c.ring.recs {
			spans, ok := byTrace[o.trace]
			if !ok {
				continue
			}
			joined++
			server := lt.addTree(buildTree(spans))
			lt.residual.add(o.dur - coreNS - o.sendNS - server)
			lt.opNS += o.dur
			if len(dump) < spanDumpTraces {
				dump = append(dump, tracedOp{Kind: kinds[o.kind], DurNS: o.dur, SendNS: o.sendNS, Spans: spans})
			}
		}
	}
	return lt, joined, dump
}
