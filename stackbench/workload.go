package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/symbol"
	"repro/internal/transferable"
)

// spec describes one workload. Every workload uses the same three hosts and
// folder servers and two closed-loop callers, each with its own connection.
type spec struct {
	name string
	// tcp runs the nodes over TCP on 127.0.0.1 instead of the zero-latency
	// simulated transport.
	tcp bool
	// entries are the hosts the two callers enter at.
	entries [2]string
	// readSet preloaded read-only folders of readBytes each, served by
	// GetCopy: copiesPerRound of them before every round, or one every
	// copyEvery rounds.
	readSet, readBytes, copiesPerRound, copyEvery int
	// relay runs the ping-pong loop instead of put/get rounds.
	relay bool
	// warmup is how many rounds each caller runs before timing.
	warmup int
}

var specs = []spec{
	{name: "jobjar", entries: [2]string{"a", "a"},
		readSet: 64, readBytes: 64, copyEvery: 4, warmup: 2000},
	{name: "futures", entries: [2]string{"a", "a"},
		readSet: 4096, readBytes: 256, copiesPerRound: 6, warmup: 200},
	{name: "relay", tcp: true, relay: true, entries: [2]string{"a", "b"},
		readSet: 64, readBytes: 64, copyEvery: 4, warmup: 500},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

const (
	jarKeys    = 64 // jobjar-style folders, a third per folder server
	payloadLen = 64 // bytes per jobjar and relay memo
	orderLen   = 8192
	// stopBit marks the relay memo that ends B's loop.
	stopBit = 0x8000
)

// inputs are everything the seed generates: keys, values and read orders.
// The stack receives only these.
type inputs struct {
	seed      uint64
	jar       []symbol.Key
	jarOrder  [2][]int32
	read      []symbol.Key
	readVals  [][]byte
	readOrder [2][]int32
	// preload is how many read-set memos each folder server holds.
	preload    []int
	ping, pong symbol.Key
}

func genInputs(st *stack, sp spec, seed uint64) (*inputs, error) {
	rng := rand.New(rand.NewPCG(seed, 0x57ac4be7c4))
	in := &inputs{seed: seed, preload: make([]int, len(hosts))}
	var err error
	if in.jar, err = thirds(st, rng, st.reg.Intern("jobjar"), jarKeys); err != nil {
		return nil, err
	}
	if in.read, err = thirds(st, rng, st.reg.Intern("read"), sp.readSet); err != nil {
		return nil, err
	}
	for i, k := range in.read {
		v := make([]byte, sp.readBytes)
		fillBytes(v, seed^mix(uint64(i)+1))
		in.readVals = append(in.readVals, v)
		in.preload[st.place.Place(k).ID]++
	}
	for c := range in.jarOrder {
		in.jarOrder[c] = order(rng, len(in.jar))
		in.readOrder[c] = order(rng, len(in.read))
	}
	relay := st.reg.Intern("relay")
	if in.ping, err = keyOn(st, rng, relay, 2); err != nil {
		return nil, err
	}
	if in.pong, err = keyOn(st, rng, relay, 0); err != nil {
		return nil, err
	}
	return in, nil
}

// thirds picks n distinct seeded keys of sym such that the folder servers
// each hold a third of them (the seed decides who gets the remainder).
func thirds(st *stack, rng *rand.Rand, sym symbol.Symbol, n int) ([]symbol.Key, error) {
	quota := make([]int, len(hosts))
	for i := range quota {
		quota[i] = n / len(hosts)
	}
	for r, off := n%len(hosts), rng.IntN(len(hosts)); r > 0; r-- {
		quota[(off+r)%len(hosts)]++
	}
	seen := make(map[uint32]bool, n)
	keys := make([]symbol.Key, 0, n)
	for tries := 0; len(keys) < n; tries++ {
		if tries > 100*n {
			return nil, fmt.Errorf("placement never filled %d keys", n)
		}
		x := rng.Uint32()
		k := symbol.K(sym, x)
		id := st.place.Place(k).ID
		if seen[x] || quota[id] == 0 {
			continue
		}
		seen[x] = true
		quota[id]--
		keys = append(keys, k)
	}
	return keys, nil
}

// keyOn picks a seeded key of sym placed on folder server id.
func keyOn(st *stack, rng *rand.Rand, sym symbol.Symbol, id int) (symbol.Key, error) {
	for tries := 0; tries < 10000; tries++ {
		k := symbol.K(sym, rng.Uint32())
		if st.place.Place(k).ID == id {
			return k, nil
		}
	}
	return symbol.Key{}, fmt.Errorf("no key placed on folder server %d", id)
}

func order(rng *rand.Rand, n int) []int32 {
	o := make([]int32, orderLen)
	for i := range o {
		o[i] = int32(rng.IntN(n))
	}
	return o
}

type opKind uint8

const (
	opPut opKind = iota
	opGet
	opCopy
)

// opRec is one traced op as the caller saw it: the trace ID the client
// stamped, its wall time, and the time its request spent in Send on the
// caller's own connection.
type opRec struct {
	trace  uint64
	kind   opKind
	dur    int64
	sendNS int64
}

// opRing keeps a caller's newest traced ops — as many as a node's trace
// ring keeps traces, so both ends of the join cover the same requests.
type opRing struct {
	recs []opRec
	next int
}

func (r *opRing) add(o opRec) {
	if len(r.recs) < traceRingSize {
		r.recs = append(r.recs, o)
		return
	}
	r.recs[r.next] = o
	r.next = (r.next + 1) % traceRingSize
}

// series are one caller's measured latencies in microseconds.
type series struct {
	round, put, get, copy latencies
	ops, fails            int64
}

// seriesNames name the timed series, as in the metric names.
var seriesNames = []string{"round", "put", "get", "copy"}

func (s *series) named(name string) latencies {
	switch name {
	case "round":
		return s.round
	case "put":
		return s.put
	case "get":
		return s.get
	}
	return s.copy
}

var errMismatch = errors.New("output check failed")

// caller is one closed-loop client: it issues its next request only when
// the previous one has returned.
type caller struct {
	id    uint16
	sp    spec
	h     *handle
	in    *inputs
	led   *ledger
	abort <-chan struct{}

	seq, rounds     uint64
	jarPos, readPos int
	buf             []byte

	measuring bool
	warmFails int64
	s         series
	ring      *opRing // traced stacks only
}

func (c *caller) begin() (time.Time, int64) {
	var sent int64
	if c.ring != nil {
		sent = c.h.conn.sentNS.Load()
	}
	return time.Now(), sent
}

func (c *caller) end(kind opKind, t0 time.Time, sent0 int64, err error) {
	d := time.Since(t0)
	if !c.measuring {
		if err != nil {
			c.warmFails++
		}
		return
	}
	c.s.ops++
	if err != nil {
		c.s.fails++
		return
	}
	us := float64(d) / 1e3
	switch kind {
	case opPut:
		c.s.put = append(c.s.put, us)
	case opGet:
		c.s.get = append(c.s.get, us)
	case opCopy:
		c.s.copy = append(c.s.copy, us)
	}
	if c.ring != nil {
		c.ring.add(opRec{trace: c.h.client.LastTraceID(), kind: kind, dur: int64(d),
			sendNS: c.h.conn.sentNS.Load() - sent0})
	}
}

func (c *caller) put(k symbol.Key, s stamp) error {
	s.fill(c.buf, c.in.seed)
	c.led.put(s)
	t0, s0 := c.begin()
	err := c.h.memo.Put(k, transferable.Bytes(c.buf))
	c.end(opPut, t0, s0, err)
	if err != nil {
		c.led.abandon(s)
	}
	return err
}

func (c *caller) get(k symbol.Key) (stamp, error) {
	t0, s0 := c.begin()
	v, err := c.h.memo.GetCancel(k, c.abort)
	c.end(opGet, t0, s0, err)
	if err != nil {
		return stamp{}, err
	}
	return c.check(v)
}

// check validates a taken memo against the ledger.
func (c *caller) check(v transferable.Value) (stamp, error) {
	b, ok := v.(transferable.Bytes)
	if !ok {
		c.led.mismatch("get returned a %T, not bytes", v)
		return stamp{}, errMismatch
	}
	s, err := parseStamp(b, c.in.seed)
	if err != nil {
		c.led.mismatch("%v", err)
		return s, errMismatch
	}
	if !c.led.take(s) {
		return s, errMismatch
	}
	return s, nil
}

// copyRead examines the next read-set folder in the caller's read order and
// checks it still holds exactly the preloaded bytes.
func (c *caller) copyRead() {
	i := c.in.readOrder[c.id-1][c.readPos%orderLen]
	c.readPos++
	t0, s0 := c.begin()
	v, err := c.h.memo.GetCopyCancel(c.in.read[i], c.abort)
	c.end(opCopy, t0, s0, err)
	if err != nil {
		return
	}
	if b, ok := v.(transferable.Bytes); !ok || !bytes.Equal(b, c.in.readVals[i]) {
		c.led.mismatch("get_copy of read folder %d returned other bytes", i)
	}
}

func (c *caller) recordRound(d time.Duration) {
	c.rounds++
	if c.measuring {
		c.s.round = append(c.s.round, float64(d)/1e3)
	}
}

// jarRound is one put/get round on a seeded jobjar key, preceded by the
// workload's reads.
func (c *caller) jarRound() {
	if c.sp.copyEvery > 0 && c.rounds%uint64(c.sp.copyEvery) == 0 {
		c.copyRead()
	}
	for i := 0; i < c.sp.copiesPerRound; i++ {
		c.copyRead()
	}
	k := c.in.jar[c.in.jarOrder[c.id-1][c.jarPos%orderLen]]
	c.jarPos++
	c.seq++
	t0 := time.Now()
	if c.put(k, stamp{c.id, c.seq}) != nil {
		return
	}
	if _, err := c.get(k); err != nil {
		return
	}
	c.recordRound(time.Since(t0))
}

// relayPing is caller A: put a ping on c's folder, wait for its echo on a's
// folder. It runs n rounds, or until the deadline when n is 0, and then
// puts the memo that stops B.
func (c *caller) relayPing(n int, deadline time.Time, peer uint16) {
	for i := 0; n == 0 && time.Now().Before(deadline) || i < n; i++ {
		if c.sp.copyEvery > 0 && c.rounds%uint64(c.sp.copyEvery) == 0 {
			c.copyRead()
		}
		c.seq++
		t0 := time.Now()
		if c.put(c.in.ping, stamp{c.id, c.seq}) != nil {
			continue
		}
		s, err := c.get(c.in.pong)
		if errors.Is(err, core.ErrCanceled) {
			return
		}
		if err != nil {
			continue
		}
		if s.caller != peer || s.seq != c.seq {
			c.led.mismatch("relay echo %d/%d answers ping %d", s.caller, s.seq, c.seq)
			continue
		}
		c.recordRound(time.Since(t0))
	}
	measuring := c.measuring
	c.measuring = false
	c.seq++
	_ = c.put(c.in.ping, stamp{c.id | stopBit, c.seq}) // a lost stop memo ends B at the abort
	c.measuring = measuring
}

// relayPong is caller B: parked in Get(ping), it echoes each ping's
// sequence number into the pong folder until A's stop memo arrives.
func (c *caller) relayPong(peer uint16) {
	for {
		s, err := c.get(c.in.ping)
		if errors.Is(err, core.ErrCanceled) {
			return
		}
		if err != nil {
			continue
		}
		if s.caller == peer|stopBit {
			return
		}
		if s.caller != peer {
			c.led.mismatch("relay ping from caller %d", s.caller)
			continue
		}
		_ = c.put(c.in.pong, stamp{c.id, s.seq}) // a failed put counts in fails and A's get times out
	}
}

// runner is one booted stack with its callers, ready to run a workload.
type runner struct {
	sp      spec
	st      *stack
	in      *inputs
	led     *ledger
	callers []*caller
	abort   chan struct{}
	once    sync.Once
}

// setup boots the stack, opens the callers' connections, generates the
// inputs, preloads the read set and warms every path up.
func setup(sp spec, seed uint64, cfg stackConfig) (*runner, error) {
	st, err := bootStack(cfg)
	if err != nil {
		return nil, err
	}
	r := &runner{sp: sp, st: st, led: newLedger(), abort: make(chan struct{})}
	if r.in, err = genInputs(st, sp, seed); err != nil {
		r.teardown()
		return nil, err
	}
	for i, host := range sp.entries {
		h, err := st.dial(host)
		if err != nil {
			r.teardown()
			return nil, err
		}
		c := &caller{id: uint16(i + 1), sp: sp, h: h, in: r.in, led: r.led, abort: r.abort,
			buf: make([]byte, payloadLen)}
		if cfg.traced {
			c.ring = &opRing{recs: make([]opRec, 0, traceRingSize)}
		}
		r.callers = append(r.callers, c)
	}
	if err := r.preload(); err != nil {
		r.teardown()
		return nil, err
	}
	r.loop(sp.warmup, time.Time{})
	for _, c := range r.callers {
		if c.warmFails > 0 {
			r.teardown()
			return nil, fmt.Errorf("%d ops failed during warm-up", c.warmFails)
		}
	}
	return r, nil
}

// preload puts the read set through the first caller.
func (r *runner) preload() error {
	m := r.callers[0].h.memo
	for i, k := range r.in.read {
		if err := m.Put(k, transferable.Bytes(r.in.readVals[i])); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}

// loop runs every caller for n rounds, or until deadline when n is 0, and
// returns when all have stopped.
func (r *runner) loop(n int, deadline time.Time) {
	var wg sync.WaitGroup
	for i, c := range r.callers {
		wg.Add(1)
		go func(i int, c *caller) {
			defer wg.Done()
			switch {
			case r.sp.relay && i == 0:
				c.relayPing(n, deadline, r.callers[1].id)
			case r.sp.relay:
				c.relayPong(r.callers[0].id)
			default:
				for j := 0; n == 0 && time.Now().Before(deadline) || j < n; j++ {
					c.jarRound()
				}
			}
		}(i, c)
	}
	wg.Wait()
}

// abortGrace is how long past the deadline a caller may stay blocked before
// its Get is abandoned and counted failed.
const abortGrace = 20 * time.Second

// measure runs the callers for d with every op timed, and returns the
// elapsed time until the last caller stopped.
func (r *runner) measure(d time.Duration) time.Duration {
	for _, c := range r.callers {
		c.s = series{round: make(latencies, 0, 1<<16), put: make(latencies, 0, 1<<16),
			get: make(latencies, 0, 1<<16), copy: make(latencies, 0, 1<<15)}
		c.measuring = true
	}
	watchdog := time.AfterFunc(d+abortGrace, r.stop)
	defer watchdog.Stop()
	start := time.Now()
	r.loop(0, start.Add(d))
	elapsed := time.Since(start)
	for _, c := range r.callers {
		c.measuring = false
	}
	return elapsed
}

func (r *runner) stop() { r.once.Do(func() { close(r.abort) }) }

// drain takes whatever a failed op left behind, then checks the ledger and
// that every folder server holds exactly its preloaded memos again. A memo
// left behind when no op failed is itself a mismatch.
func (r *runner) drain() []string {
	var fails int64
	for _, c := range r.callers {
		fails += c.s.fails + c.warmFails
	}
	m := r.callers[0].h.memo
	keys := append(append([]symbol.Key(nil), r.in.jar...), r.in.ping, r.in.pong)
	for _, k := range keys {
		for {
			v, ok, err := m.GetSkip(k)
			if err != nil {
				r.led.mismatch("drain %v: %v", k, err)
				break
			}
			if !ok {
				break
			}
			if s, err := r.callers[0].check(v); err == nil && fails == 0 {
				r.led.mismatch("memo %d/%d left in its folder after the run", s.caller, s.seq)
			}
		}
	}
	got := r.st.memoCounts()
	for i := range got {
		if got[i] != r.in.preload[i] {
			r.led.mismatch("folder server %d holds %d memos, want its %d preloaded", i, got[i], r.in.preload[i])
		}
	}
	return r.led.close()
}

func (r *runner) teardown() {
	r.stop()
	r.st.close()
}

// counts totals the callers' measured ops and failures.
func (r *runner) counts() (ops, fails int64) {
	for _, c := range r.callers {
		ops += c.s.ops
		fails += c.s.fails
	}
	return ops, fails
}
