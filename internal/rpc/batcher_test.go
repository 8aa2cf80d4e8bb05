package rpc

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// frameLog is a frameSender that decodes every frame it is handed and
// records the entry ids in arrival order. It fails the test if two sends
// ever overlap: the flush role is exclusive.
type frameLog struct {
	t       *testing.T
	sending atomic.Bool
	// gate, when non-nil, is consulted before each send (1-based frame
	// number) and may block it.
	gate func(frame int)

	mu     sync.Mutex
	frames int
	ids    []uint64
}

func (l *frameLog) Send(msg []byte) error {
	if !l.sending.CompareAndSwap(false, true) {
		l.t.Error("two goroutines sent on the batcher's conn at once")
	}
	l.mu.Lock()
	l.frames++
	n := l.frames
	l.mu.Unlock()
	if l.gate != nil {
		l.gate(n)
	}
	_, entries, err := wire.DecodeBatch(msg)
	if err != nil {
		l.t.Error(err)
	}
	l.mu.Lock()
	for _, e := range entries {
		l.ids = append(l.ids, e.ID)
	}
	l.mu.Unlock()
	l.sending.Store(false)
	return nil
}

func (l *frameLog) snapshot() (frames int, ids []uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.frames, append([]uint64(nil), l.ids...)
}

// waitIDs polls until the log holds n entries.
func (l *frameLog) waitIDs(t *testing.T, n int) []uint64 {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, ids := l.snapshot()
		if len(ids) >= n {
			return ids
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d entries delivered", len(ids), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBatcherConcurrentAddsExactlyOnceInOrder: goroutines adding at once
// (each one flushing whenever it finds the wire idle) deliver every entry
// exactly once, each goroutine's entries in the order it added them, and
// never two sends at a time.
func TestBatcherConcurrentAddsExactlyOnceInOrder(t *testing.T) {
	const adders, each = 8, 500
	log := &frameLog{t: t}
	b := newBatcher(wire.BatchRequest, Policy{MaxCount: 16}.withDefaults(), log, nil)
	var wg sync.WaitGroup
	for g := 0; g < adders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				b.add(wire.BatchEntry{ID: uint64(g)<<32 | uint64(i)}, true)
			}
		}(g)
	}
	wg.Wait()
	ids := log.waitIDs(t, adders*each)
	if len(ids) != adders*each {
		t.Fatalf("%d entries delivered, want %d", len(ids), adders*each)
	}
	next := make([]uint64, adders)
	for _, id := range ids {
		g, i := id>>32, id&(1<<32-1)
		if i != next[g] {
			t.Fatalf("adder %d: entry %d arrived when %d was due (lost, duplicated or reordered)", g, i, next[g])
		}
		next[g]++
	}
	frames, _ := log.snapshot()
	t.Logf("%d entries in %d frames", len(ids), frames)
}

// TestBatcherAddControlPromptWhileSendWedged: a read loop or heartbeat
// loop must never stall behind the wire. With the flusher stuck in Send,
// addControl returns at once — past the high-water mark too — and the
// entries ship once the wire frees up.
func TestBatcherAddControlPromptWhileSendWedged(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{})
	log := &frameLog{t: t, gate: func(frame int) {
		if frame == 1 {
			close(entered)
			<-release
		}
	}}
	pol := Policy{MaxCount: 2}.withDefaults()
	b := newBatcher(wire.BatchRequest, pol, log, nil)
	go b.add(wire.BatchEntry{ID: 1}, true)
	<-entered

	n := 2 * b.highWater()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			if !b.addControl(wire.BatchEntry{ID: uint64(2 + i), Heartbeat: true}) {
				t.Error("addControl refused on a live batcher")
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("addControl blocked behind a wedged Send")
	}
	close(release)
	log.waitIDs(t, 1+n)
}

// TestBatcherFlusherHandsOffAfterBound: a caller that takes the flush role
// ships at most maxInlineFrames frames, then returns and leaves the rest
// of the queue to a drain goroutine.
func TestBatcherFlusherHandsOffAfterBound(t *testing.T) {
	first, rest := make(chan struct{}), make(chan struct{})
	entered := make(chan struct{})
	var completed atomic.Int32
	log := &frameLog{t: t, gate: func(frame int) {
		switch {
		case frame == 1:
			close(entered)
			<-first
		case frame > maxInlineFrames:
			<-rest
		}
		completed.Add(1)
	}}
	b := newBatcher(wire.BatchRequest, Policy{MaxCount: 1}.withDefaults(), log, nil)
	returned := make(chan struct{})
	go func() {
		b.add(wire.BatchEntry{ID: 0}, true)
		close(returned)
	}()
	<-entered
	const queued = 10
	for i := 1; i <= queued; i++ {
		b.addControl(wire.BatchEntry{ID: uint64(i), Heartbeat: true})
	}
	close(first)
	select {
	case <-returned:
	case <-time.After(2 * time.Second):
		t.Fatal("the inline flusher never handed off")
	}
	if got := completed.Load(); got != maxInlineFrames {
		t.Fatalf("inline flusher returned after %d frames, want %d", got, maxInlineFrames)
	}
	close(rest)
	log.waitIDs(t, 1+queued)
}

// TestOversizeMessagesFailOnlyTheirCall: without mux fragmentation a frame
// over transport.MaxFrame cannot travel. An oversize request fails its own
// call, an oversize response becomes an error response, and the connection
// carries on either way.
func TestOversizeMessagesFailOnlyTheirCall(t *testing.T) {
	big := bytes.Repeat([]byte{7}, transport.MaxFrame)
	h := func(q *wire.Request, _ <-chan struct{}) *wire.Response {
		if q.Op == wire.OpGet {
			return &wire.Response{Status: wire.StatusOK, Payload: big}
		}
		return echoHandler(q, nil)
	}
	c := pipe(t, h, nil, Policy{})
	if _, err := c.Call(&wire.Request{Op: wire.OpPut, Payload: big}, nil); !errors.Is(err, transport.ErrTooLarge) {
		t.Fatalf("oversize request: %v, want ErrTooLarge", err)
	}
	if resp, err := c.Call(&wire.Request{Op: wire.OpGet}, nil); err != nil || resp.Status != wire.StatusErr {
		t.Fatalf("oversize response: %+v %v, want an error response", resp, err)
	}
	resp, err := c.Call(&wire.Request{Op: wire.OpPing, Payload: []byte("after")}, nil)
	if err != nil || string(resp.Payload) != "after" {
		t.Fatalf("call after the oversize ones: %+v %v", resp, err)
	}
	if c.Err() != nil {
		t.Fatalf("connection died: %v", c.Err())
	}
}
