package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"repro/internal/durable"
	"repro/internal/folder"
	"repro/internal/symbol"
	"repro/internal/transferable"
	"repro/internal/wire"
)

// The layer ladder times the same put/get pairs through successively
// shorter stacks, one request in flight:
//
//	core.Memo -> memoserver.Client.Do -> Node.Dispatch ->
//	folder.Server.Handle -> folder.Store -> durable.Log Append+Commit
//
// The first four run on the workload's own live stack (untraced), the last
// two on a standalone store and log holding the workload's keys. The
// differences between rungs are the layers' own costs on this workload's
// inputs.

// ladderPairs is how many put/get pairs each rung times.
const ladderPairs = 1000

// ladderResult holds each rung's time per op: the p50 for the core and
// Client.Do rungs, the mean for the others.
type ladderResult struct {
	coreP50US, clientP50US float64
	dispatchUS, handleUS   float64
	storeNS                float64
	// wakeUS is how long a Get parked on an empty standalone store folder
	// takes to return once a Put lands: the store's own park/wake cost.
	wakeUS float64
	// Standalone write-ahead log: Append+Commit per record, and the
	// counters it moved.
	logUS, recordsPerFsync, fsyncUS, bytesPerUserByte float64
	// Codec costs on the workload's own values and requests, ns per item.
	marshalNS, unmarshalNS, encodeNS, decodeNS float64
}

// ladderKeys are the keys the workload's rounds put and get.
func (r *runner) ladderKeys() []symbol.Key {
	if r.sp.relay {
		return []symbol.Key{r.in.ping}
	}
	return r.in.jar
}

func (r *runner) ladder(scratch string) (ladderResult, error) {
	var lr ladderResult
	keys := r.ladderKeys()
	c := r.callers[0]
	payload := make([]byte, payloadLen)
	fillBytes(payload, r.in.seed)
	enc, err := transferable.Marshal(transferable.Bytes(payload))
	if err != nil {
		return lr, err
	}
	check := func(rung string, got []byte, want []byte) error {
		if !bytes.Equal(got, want) {
			return fmt.Errorf("ladder %s: get returned other bytes", rung)
		}
		return nil
	}
	req := func(op wire.Op, k symbol.Key, p []byte) *wire.Request {
		q := &wire.Request{Op: op, App: appName, FolderID: r.st.place.Place(k).ID, Key: k}
		if p != nil {
			q.Payload = append([]byte(nil), p...)
		}
		return q
	}
	// timePairs runs fn on every pair and returns the mean µs per op.
	timePairs := func(fn func(k symbol.Key) error) (float64, error) {
		start := time.Now()
		for i := 0; i < ladderPairs; i++ {
			if err := fn(keys[i%len(keys)]); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(start)) / 1e3 / (2 * ladderPairs), nil
	}

	// The core and Client.Do rungs alternate pair by pair, so drift in the
	// stack's speed cannot pass for a layer, and core's own time is the
	// difference of their per-op medians.
	var coreOps, doOps latencies
	for i := 0; i < ladderPairs; i++ {
		k := keys[i%len(keys)]
		t0 := time.Now()
		if err := c.h.memo.Put(k, transferable.Bytes(payload)); err != nil {
			return lr, err
		}
		t1 := time.Now()
		v, err := c.h.memo.Get(k)
		if err != nil {
			return lr, err
		}
		t2 := time.Now()
		b, _ := v.(transferable.Bytes)
		if err := check("core", b, payload); err != nil {
			return lr, err
		}
		put, get := req(wire.OpPut, k, enc), req(wire.OpGet, k, nil)
		t3 := time.Now()
		if _, err := c.h.client.Do(put, nil); err != nil {
			return lr, err
		}
		t4 := time.Now()
		resp, err := c.h.client.Do(get, nil)
		if err != nil {
			return lr, err
		}
		t5 := time.Now()
		if err := check("client", resp.Payload, enc); err != nil {
			return lr, err
		}
		coreOps = append(coreOps, us(t1.Sub(t0)), us(t2.Sub(t1)))
		doOps = append(doOps, us(t4.Sub(t3)), us(t5.Sub(t4)))
	}
	lr.coreP50US, lr.clientP50US = median(coreOps), median(doOps)
	node := r.st.nodes[c.h.host]
	if lr.dispatchUS, err = timePairs(func(k symbol.Key) error {
		node.Dispatch(req(wire.OpPut, k, enc), nil)
		return check("dispatch", node.Dispatch(req(wire.OpGet, k, nil), nil).Payload, enc)
	}); err != nil {
		return lr, err
	}
	if lr.handleUS, err = timePairs(func(k symbol.Key) error {
		fs := r.st.folderServer(r.st.place.Place(k).ID)
		fs.Handle(req(wire.OpPut, k, enc), nil)
		return check("handle", fs.Handle(req(wire.OpGet, k, nil), nil).Payload, enc)
	}); err != nil {
		return lr, err
	}

	store := folder.NewStore()
	for i, k := range r.in.read {
		if err := store.Put(k, r.in.readVals[i]); err != nil {
			return lr, err
		}
	}
	storeUS, err := timePairs(func(k symbol.Key) error {
		if err := store.Put(k, append([]byte(nil), enc...)); err != nil {
			return err
		}
		got, err := store.Get(k, nil)
		if err != nil {
			return err
		}
		return check("store", got, enc)
	})
	if err != nil {
		return lr, err
	}
	lr.storeNS = storeUS * 1e3
	if lr.wakeUS, err = parkWake(store, keys[0], enc); err != nil {
		return lr, err
	}
	if err := r.ladderLog(&lr, filepath.Join(scratch, "ladder-wal"), keys, enc); err != nil {
		return lr, err
	}
	r.codecs(&lr, payload, enc)
	return lr, nil
}

// parkWake times Gets parked on an empty folder of a standalone store, from
// the Put that satisfies each to the Get's return.
func parkWake(store *folder.Store, k symbol.Key, payload []byte) (float64, error) {
	const probes = 200
	var total time.Duration
	for i := 0; i < probes; i++ {
		got := make(chan time.Time, 1)
		ready := make(chan struct{})
		go func() {
			close(ready)
			_, _ = store.Get(k, nil) // the Put below always satisfies it
			got <- time.Now()
		}()
		<-ready
		time.Sleep(50 * time.Microsecond) // let the Get park
		t0 := time.Now()
		if err := store.Put(k, payload); err != nil {
			return 0, err
		}
		total += (<-got).Sub(t0)
	}
	return float64(total) / 1e3 / probes, nil
}

// ladderLog appends and commits the workload's put records one at a time
// to a standalone group-commit log, and reads what that cost the durable
// layer off its own counters and the log's size on disk.
func (r *runner) ladderLog(lr *ladderResult, dir string, keys []symbol.Key, payload []byte) error {
	log, err := durable.Open(dir, 1, durable.Config{Sync: durable.SyncBatch}, func(*durable.Record) error { return nil })
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	before := snapRegistry()
	start := time.Now()
	for i := 0; i < ladderPairs; i++ {
		seq := log.Append(0, &durable.Record{Type: durable.RecPut, Key: keys[i%len(keys)], Payload: payload})
		if err := log.Commit(0, seq); err != nil {
			log.Close()
			return err
		}
	}
	lr.logUS = float64(time.Since(start)) / 1e3 / ladderPairs
	if err := log.Close(); err != nil {
		return err
	}
	d := snapRegistry().minus(before)
	lr.recordsPerFsync = ratio(d["durable_appends_total"], d["durable_fsync_ns_count"])
	lr.fsyncUS = ratio(d["durable_fsync_ns_sum"], d["durable_fsync_ns_count"]) / 1e3
	onDisk, err := dirBytes(dir)
	if err != nil {
		return err
	}
	lr.bytesPerUserByte = ratio(float64(onDisk), float64(ladderPairs*len(payload)))
	return nil
}

// dirBytes totals the sizes of the files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// codecs times the transferable and wire codecs on the values and requests
// one round of the workload moves.
func (r *runner) codecs(lr *ladderResult, payload, enc []byte) {
	const reps = 2000
	k := r.ladderKeys()[0]
	vals := [][]byte{enc}
	reqs := []*wire.Request{
		{Op: wire.OpPut, App: appName, Key: k, Payload: enc},
		{Op: wire.OpGet, App: appName, Key: k},
	}
	copies := r.sp.copiesPerRound
	if r.sp.copyEvery > 0 {
		copies = 1
	}
	for i := 0; i < copies; i++ {
		rv, _ := transferable.Marshal(transferable.Bytes(r.in.readVals[i]))
		vals = append(vals, rv)
		reqs = append(reqs, &wire.Request{Op: wire.OpGetCopy, App: appName, Key: r.in.read[i]})
	}
	start := time.Now()
	for i := 0; i < reps; i++ {
		_, _ = transferable.Marshal(transferable.Bytes(payload))
	}
	lr.marshalNS = float64(time.Since(start)) / reps
	start = time.Now()
	for i := 0; i < reps; i++ {
		for _, b := range vals {
			_, _ = transferable.Unmarshal(b, transferable.Domain64)
		}
	}
	lr.unmarshalNS = float64(time.Since(start)) / float64(reps*len(vals))
	buf := make([]byte, 0, 1024)
	start = time.Now()
	for i := 0; i < reps; i++ {
		for _, q := range reqs {
			buf = wire.AppendRequest(buf[:0], q)
		}
	}
	lr.encodeNS = float64(time.Since(start)) / float64(reps*len(reqs))
	frames := make([][]byte, len(reqs))
	for i, q := range reqs {
		frames[i] = wire.EncodeRequest(q)
	}
	var q wire.Request
	start = time.Now()
	for i := 0; i < reps; i++ {
		for _, f := range frames {
			_ = wire.DecodeRequestInto(&q, f)
		}
	}
	lr.decodeNS = float64(time.Since(start)) / float64(reps*len(frames))
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
