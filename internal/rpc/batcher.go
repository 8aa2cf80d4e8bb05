package rpc

import (
	"sync"

	"repro/internal/pool"
	"repro/internal/transport"
	"repro/internal/wire"
)

// batcher coalesces batch entries into frames. Both ends of a connection
// use one: the Conn for requests, Serve for responses.
//
// The engine is caller-flushed combining. The goroutine whose add finds no
// flush in progress takes the flush role: it encodes and sends the frame
// itself, then keeps draining whatever queued behind it while it was on
// the wire. A lone entry on an idle wire is therefore sent by its own
// caller, with no goroutine handoff; under concurrency the previous
// frame's transmission time is exactly the window in which companions
// accumulate, so batch size adapts to the link speed by itself. No entry
// can be stranded: the flusher re-checks the queue under the lock before
// it gives the role up. MaxCount/MaxBytes cap a frame.
//
// A flusher is a caller with its own work to get back to, so it ships at
// most maxInlineFrames frames and then hands any remainder to a one-shot
// drain goroutine. Read loops never write to the wire: their entries
// (heartbeat probes and echoes, cancels, protocol errors) go to that same
// one-shot goroutine whenever no flush is running.
//
// The queue itself is bounded: past a high-water mark (a few frames'
// worth), add blocks until the flusher drains — so a peer that stops
// reading stalls its producers (callers, handler threads) instead of
// growing memory without limit. A caller blocked in Send behind a wedged
// wire is released when the connection closes (the client's heartbeat
// deadman, the server's read-side teardown).
//
// The steady state allocates nothing: entry Msg bytes arrive in pooled
// buffers owned by the batcher (recycled after their frame ships), the
// frame itself is encoded into a pooled buffer, and both the queue array
// and the drain slice are reused across frames.
type batcher struct {
	kind  wire.BatchKind
	pol   Policy
	conn  frameSender // transports one encoded frame
	onErr func(error) // called once when send fails
	// preSend, when set, observes each frame's entries immediately before
	// the transport send, and vetoes the send by returning false. The Conn
	// uses it to mark calls as handed-to-the-wire: marking before the send
	// means a send that fails midway still counts as "maybe sent", the
	// conservative direction for retry safety, and the veto keeps a frame
	// off the wire once its callers may have been told it never left.
	preSend func([]wire.BatchEntry) bool

	mu        sync.Mutex
	unblocked *sync.Cond // signaled when queue drains below high water
	queue     []wire.BatchEntry
	spare     []wire.BatchEntry // the drain slice, held by whoever flushes
	flushing  bool              // some goroutine holds the flush role
	closed    bool
}

// maxInlineFrames bounds how many frames a caller ships before it hands
// the remainder of the queue to a drain goroutine and returns.
const maxInlineFrames = 4

// frameSender is the slice of transport.Conn the batcher drives.
type frameSender interface {
	Send(msg []byte) error
}

func newBatcher(kind wire.BatchKind, pol Policy, conn frameSender, onErr func(error)) *batcher {
	b := &batcher{kind: kind, pol: pol, conn: conn, onErr: onErr}
	b.unblocked = sync.NewCond(&b.mu)
	return b
}

// highWater is the queue depth at which add starts blocking: four full
// frames of headroom keeps the flusher busy without unbounded buildup.
func (b *batcher) highWater() int { return 4 * b.pol.MaxCount }

// add queues one entry, blocking while the queue is over the high-water
// mark. With inline set and no flush running, the calling goroutine
// flushes; otherwise a running flusher (or a fresh drain goroutine) ships
// the entry. Ownership of e.Msg's buffer passes to the batcher, which
// recycles it once the entry's frame has shipped.
//
//memolint:transfers-ownership
func (b *batcher) add(e wire.BatchEntry, inline bool) {
	b.mu.Lock()
	for !b.closed && len(b.queue) >= b.highWater() {
		b.unblocked.Wait()
	}
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.queue = append(b.queue, e)
	b.kickLocked(inline)
}

// addControl enqueues a control entry (heartbeat probe or echo, cancel)
// without ever blocking or writing on the calling goroutine: control
// traffic must not park behind the backpressure wait or a wedged wire —
// the heartbeat loop and the server read loop cannot afford to stop — and
// must not be dropped at high water either, because a saturated-but-healthy
// link still needs its proof-of-life traffic (a probe starved by a full
// data queue would let the deadman kill a live link). Control entries are
// tiny and rate-bounded (one probe per interval, one echo per inbound
// probe, one cancel per abandoned call), so exceeding the high-water mark
// by their count is harmless. Returns false only when the batcher is
// already closed. Like add, it takes over e.Msg's buffer (when the entry
// carries one).
//
//memolint:transfers-ownership
func (b *batcher) addControl(e wire.BatchEntry) bool {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return false
	}
	b.queue = append(b.queue, e)
	b.kickLocked(false)
	return true
}

// kickLocked makes sure the queue has a flusher: a running one, the caller
// (inline), or a new drain goroutine. The caller holds b.mu; kickLocked
// releases it.
func (b *batcher) kickLocked(inline bool) {
	if b.flushing {
		b.mu.Unlock()
		return
	}
	b.flushing = true
	if inline {
		b.flushLocked(true)
		return
	}
	b.mu.Unlock()
	go b.drain()
}

// drain is the one-shot flusher: it ships until the queue is empty.
func (b *batcher) drain() {
	b.mu.Lock()
	b.flushLocked(false)
}

// flushLocked ships Policy-capped frames for as long as entries remain.
// The caller holds b.mu and the flush role; flushLocked releases both
// before returning — the role passes to a drain goroutine when an inline
// flusher reaches maxInlineFrames with entries still queued.
func (b *batcher) flushLocked(inline bool) {
	batch := b.spare
	b.spare = nil
	for frames := 0; ; frames++ {
		if b.closed || len(b.queue) == 0 {
			b.flushing = false
			b.spare = batch
			b.mu.Unlock()
			return
		}
		if inline && frames == maxInlineFrames {
			b.spare = batch
			b.mu.Unlock()
			go b.drain()
			return
		}
		batch = b.takeLocked(batch[:0])
		b.mu.Unlock()
		if err := b.ship(batch); err != nil {
			b.close()
			if b.onErr != nil {
				b.onErr(err)
			}
			return
		}
		b.mu.Lock()
	}
}

// ship sends one frame and recycles its entries' buffers.
func (b *batcher) ship(batch []wire.BatchEntry) error {
	err := ErrConnClosed
	if b.preSend == nil || b.preSend(batch) {
		err = b.sendFrame(batch)
	}
	// Recycle each entry's message and span buffers and drop the references
	// so payloads aren't pinned until the next drain.
	for i := range batch {
		if m := batch[i].Msg; m != nil {
			pool.Put(m)
		}
		if sp := batch[i].Spans; sp != nil {
			pool.Put(sp)
		}
		batch[i] = wire.BatchEntry{}
	}
	return err
}

// sendFrame encodes one frame into a pooled buffer and ships it.
func (b *batcher) sendFrame(batch []wire.BatchEntry) error {
	mFrames.Inc()
	mBatchEntries.Observe(int64(len(batch)))
	msgBytes := 0
	for i := range batch {
		msgBytes += len(batch[i].Msg) + len(batch[i].Spans)
	}
	frame := wire.AppendBatch(pool.Get(wire.BatchOverhead(len(batch), msgBytes)), b.kind, batch)
	err := b.conn.Send(frame)
	pool.Put(frame)
	return err
}

// takeLocked copies up to MaxCount entries / ~MaxBytes encoded bytes
// (always at least one entry, never a frame over transport.MaxFrame) from
// the queue head into dst, compacting the queue in place so its backing
// array is reused forever.
func (b *batcher) takeLocked(dst []wire.BatchEntry) []wire.BatchEntry {
	n, size, msgBytes := 0, 0, 0
	for n < len(b.queue) && n < b.pol.MaxCount && size < b.pol.MaxBytes {
		m := len(b.queue[n].Msg) + len(b.queue[n].Spans)
		if n > 0 && wire.BatchOverhead(n+1, msgBytes+m) > transport.MaxFrame {
			break
		}
		msgBytes += m
		size += m + 12 // ~ per-entry framing overhead
		n++
	}
	dst = append(dst, b.queue[:n]...)
	rest := copy(b.queue, b.queue[n:])
	for i := rest; i < len(b.queue); i++ {
		b.queue[i] = wire.BatchEntry{}
	}
	b.queue = b.queue[:rest]
	b.unblocked.Broadcast()
	return dst
}

// fitsFrame reports whether one entry of msgBytes message and span bytes
// travels in a frame within transport.MaxFrame.
func fitsFrame(msgBytes int) bool {
	return wire.BatchOverhead(1, msgBytes) <= transport.MaxFrame
}

// close drops queued entries; subsequent adds no-op, and a running flusher
// stops after its current frame.
func (b *batcher) close() {
	b.mu.Lock()
	b.closed = true
	b.queue = nil
	b.unblocked.Broadcast()
	b.mu.Unlock()
}
