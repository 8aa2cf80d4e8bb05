package obs

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// Request tracing (the cross-node half; wire/span.go defines the record
// format and the per-request SpanSet). A Tracer lives at the top of each
// server's dispatch and owns the whole policy: it decides at the entry point
// whether a request is sampled, hands the dispatch wrapper a SpanSet to
// collect into, times unsampled requests when a slow threshold is armed, and
// records into one bounded per-node TraceRing served at /tracez — every
// finished sampled set (local spans plus whatever remote hops returned), and
// a one-span sample of every unsampled request over the threshold. "Slow" is
// a mark on a sample, not a second log. `memo trace <id>` merges the rings
// of all nodes back into one timeline.

// NewTraceID mints a non-zero request trace ID. 64 random bits: collisions
// across the ring windows a trace is compared in are negligible, and zero is
// reserved for "untraced" so the wire extension can stay flag-gated.
func NewTraceID() uint64 {
	for {
		if t := rand.Uint64(); t != 0 {
			return t
		}
	}
}

// Sampler makes the entry-point sampling decision. It is counter-based
// rather than random — one atomic add, deterministic at rate 1, and no rng
// on the hot path: a rate of 1/n samples exactly every nth entry request.
// A nil Sampler never samples.
type Sampler struct {
	every uint64
	n     atomic.Uint64
}

// NewSampler returns a sampler admitting roughly rate of entry requests
// (rate >= 1 admits all). rate <= 0 returns nil: never sample.
func NewSampler(rate float64) *Sampler {
	if rate <= 0 {
		return nil
	}
	every := uint64(1)
	if rate < 1 {
		every = uint64(1/rate + 0.5)
		if every < 1 {
			every = 1
		}
	}
	return &Sampler{every: every}
}

// Sample reports whether this entry request should be sampled (nil-safe).
func (s *Sampler) Sample() bool {
	if s == nil {
		return false
	}
	return s.n.Add(1)%s.every == 0
}

// TraceSample is one request's spans as seen by one node: the local span
// set of each hop this node owned, plus the remote spans those hops'
// forwards returned. The entry node's sample holds the full tree. Slow marks
// a request that ran at or over the tracer's slow threshold; an unsampled
// slow request's sample holds the one span that timed it.
type TraceSample struct {
	Trace uint64      `json:"trace"`
	Spans []wire.Span `json:"spans"`
	Slow  bool        `json:"slow,omitempty"`
}

// defaultTraceCap bounds the trace ring when NewTraceRing is given no
// capacity.
const defaultTraceCap = 256

// TraceRing is a bounded ring of recent trace samples, newest overwriting
// oldest — the per-node store behind /tracez. All methods are nil-safe.
type TraceRing struct {
	recorded Counter
	slow     Counter

	mu   sync.Mutex
	ring []TraceSample
	next int
	n    int
}

// NewTraceRing returns a ring holding the last capacity traces (<= 0 means
// the default).
func NewTraceRing(capacity int) *TraceRing {
	if capacity <= 0 {
		capacity = defaultTraceCap
	}
	return &TraceRing{ring: make([]TraceSample, capacity)}
}

// Record stores one trace sample (nil-safe; trace 0 and empty span sets are
// dropped). The spans slice is stored as-is: callers hand over ownership
// (SpanSet.Finish already returns a private copy).
func (r *TraceRing) Record(ts TraceSample) {
	if r == nil || ts.Trace == 0 || len(ts.Spans) == 0 {
		return
	}
	r.recorded.Inc()
	if ts.Slow {
		r.slow.Inc()
	}
	r.mu.Lock()
	r.ring[r.next] = ts
	r.next = (r.next + 1) % len(r.ring)
	if r.n < len(r.ring) {
		r.n++
	}
	r.mu.Unlock()
}

// Recorded reports how many samples have been recorded since creation.
func (r *TraceRing) Recorded() int64 {
	if r == nil {
		return 0
	}
	return r.recorded.Load()
}

// SlowRecorded reports how many of the recorded samples were marked slow.
func (r *TraceRing) SlowRecorded() int64 {
	if r == nil {
		return 0
	}
	return r.slow.Load()
}

// Recent returns the recorded samples, newest first (at most the ring
// capacity). Nil-safe.
func (r *TraceRing) Recent() []TraceSample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TraceSample, 0, r.n)
	for i := 1; i <= r.n; i++ {
		idx := r.next - i
		if idx < 0 {
			idx += len(r.ring)
		}
		out = append(out, r.ring[idx])
	}
	return out
}

// Get returns every recorded sample for one trace ID, newest first — one
// trace can appear several times on a node that served several of its hops.
// Nil-safe.
func (r *TraceRing) Get(trace uint64) []TraceSample {
	if r == nil || trace == 0 {
		return nil
	}
	var out []TraceSample
	for _, ts := range r.Recent() {
		if ts.Trace == trace {
			out = append(out, ts)
		}
	}
	return out
}

// Tracer is one server's request-tracing front end: the sampling decision,
// the slow threshold, the span-set ownership protocol, and the trace ring.
// A nil Tracer records nothing but still times a layer span into a set an
// enclosing wrapper owns (an embedded folder server under its memo server).
// A Tracer with a nil sampler still collects and records spans for requests
// other nodes sampled.
type Tracer struct {
	node    string
	sampler *Sampler
	slow    time.Duration // <= 0: no slow timing of unsampled requests
	ring    *TraceRing
	onSlow  func(trace uint64, sp wire.Span)
}

// NewTracer builds a tracer for a server named node ("memo@a",
// "folder-0@b"), sampling entry requests at rate (0 = relay-only), marking
// requests that run at least slow as slow (0 = never), into a ring of
// ringCap traces (<= 0 means the default).
func NewTracer(node string, rate float64, slow time.Duration, ringCap int) *Tracer {
	return &Tracer{node: node, sampler: NewSampler(rate), slow: slow, ring: NewTraceRing(ringCap)}
}

// Ring exposes the trace ring (nil on a nil tracer) for /tracez.
func (t *Tracer) Ring() *TraceRing {
	if t == nil {
		return nil
	}
	return t.ring
}

// OnSlow installs a callback invoked with the trace ID and the layer span
// of every request recorded slow — the daemons' one-line slow-request log.
// Call it before the tracer serves requests.
func (t *Tracer) OnSlow(fn func(trace uint64, sp wire.Span)) { t.onSlow = fn }

// Scope is one layer's open span: Begin returns it and End closes it. The
// zero Scope means the request is neither traced nor timed here.
type Scope struct {
	set   *wire.SpanSet // attached by this Begin; nil when not the owner
	start time.Time
}

// Timed reports whether the caller must close the scope with End.
func (s Scope) Timed() bool { return !s.start.IsZero() }

// StartNS is the scope's start in Unix nanoseconds, for spans a layer adds
// alongside its own.
func (s Scope) StartNS() int64 { return s.start.UnixNano() }

// Begin is called by a dispatch wrapper at the top of a layer. If an
// enclosing wrapper already attached a SpanSet, the scope just times this
// layer's span into it. Otherwise, if the request deserves spans here — it
// arrived sampled, or it is an entry request (hop 0) the sampler admits —
// Begin attaches a fresh SpanSet to q, which End records and releases. An
// unsampled request is still timed when the slow threshold is armed, and an
// entry request gets a trace ID so every hop's record names it alike. With
// none of these, Begin returns the zero Scope after a few branches: the
// unarmed hot path allocates nothing and takes no timestamps.
func (t *Tracer) Begin(q *wire.Request) Scope {
	if q.Spans != nil {
		return Scope{start: time.Now()}
	}
	if t == nil {
		return Scope{}
	}
	if !q.Sampled && q.Hops == 0 && t.sampler.Sample() {
		q.Sampled = true
		if q.TraceID == 0 {
			q.TraceID = NewTraceID()
		}
	}
	if q.Sampled {
		set := wire.NewSpanSet()
		q.Spans = set
		return Scope{set: set, start: time.Now()}
	}
	if t.slow <= 0 {
		return Scope{}
	}
	if q.TraceID == 0 && q.Hops == 0 {
		q.TraceID = NewTraceID()
	}
	return Scope{start: time.Now()}
}

// End closes a timed scope with this layer's span sp (End fills its hop,
// start and duration). Under an enclosing owner the span joins that owner's
// set. An owned set gets the span plus any remote spans riding resp, every
// span without a node name is stamped with this tracer's, and the set is
// recorded into the ring — marked slow if the layer ran over the threshold —
// and released; a shallow clone of resp carrying the spans is returned for
// the rpc layer to ship back toward the entry node (resp itself may be the
// shared immutable OK response, so it is never mutated). An unsampled
// request over the threshold is recorded as a one-span slow sample.
func (t *Tracer) End(q *wire.Request, sc Scope, resp *wire.Response, sp wire.Span) *wire.Response {
	dur := time.Since(sc.start)
	sp.Hop, sp.Start, sp.Dur = q.TraceHop, sc.start.UnixNano(), int64(dur)
	if sc.set == nil && q.Spans != nil {
		q.Spans.Add(sp)
		return resp
	}
	// From here t is non-nil: Begin times nothing else on a nil tracer.
	if sp.Node == "" {
		sp.Node = t.node
	}
	slow := t.slow > 0 && dur >= t.slow
	if sc.set == nil {
		if slow {
			trace := q.TraceID
			if trace == 0 { // a hop >= 1 request its entry node left traceless
				trace = NewTraceID()
			}
			t.record(TraceSample{Trace: trace, Spans: []wire.Span{sp}, Slow: true}, sp)
		}
		return resp
	}
	sc.set.Add(sp)
	if len(resp.Spans) > 0 {
		sc.set.AddMany(resp.Spans)
	}
	spans := sc.set.Finish(t.node)
	sc.set.Release()
	t.record(TraceSample{Trace: q.TraceID, Spans: spans, Slow: slow}, sp)
	out := *resp
	out.Spans = spans
	return &out
}

// record stores one sample and, when it is slow, reports its layer span to
// the OnSlow callback.
func (t *Tracer) record(ts TraceSample, sp wire.Span) {
	t.ring.Record(ts)
	if ts.Slow && t.onSlow != nil {
		t.onSlow(ts.Trace, sp)
	}
}
