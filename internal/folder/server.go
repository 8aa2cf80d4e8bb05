package folder

import (
	"fmt"
	"strconv"

	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/threadcache"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Server is one folder server: a Store and the wire protocol. A Server is
// driven either directly (Handle, called by the local memo server on its
// own dispatching thread — the Fig. 1 same-host path) or by Serve over a
// transport listener (the standalone folderserverd deployment), which
// dispatches through the server's own thread cache.
type Server struct {
	// ID is the ADF folder-server number.
	ID int
	// Host is the machine this server runs on.
	Host string

	store *Store
	// pool is the thread cache Serve dispatches through; a server embedded
	// in a memo server never submits to it, so its counters stay zero.
	pool  *threadcache.Pool
	batch rpc.Policy
	// tracer, when non-nil, owns span sets and slow timing for requests
	// that reach Handle without an enclosing dispatch wrapper — the
	// standalone folderserverd deployment, where this server is the whole
	// node. Under a memo server the tracer is nil: the node's own tracer owns
	// the set, and the node's memo span already times this server's work.
	tracer *obs.Tracer
	// where names this server in its spans, e.g. "folder-3@bonnie".
	where string
	// ownsStore marks a store this server opened itself (OpenServer): Close
	// then flushes and closes its write-ahead log too.
	ownsStore bool
}

// ServerOption tunes a Server.
type ServerOption func(*Server)

// WithBatchPolicy sets the rpc flush policy for connections this server
// answers (zero = rpc defaults).
func WithBatchPolicy(p rpc.Policy) ServerOption {
	return func(s *Server) { s.batch = p }
}

// WithTracer attaches a request tracer for the standalone deployment:
// Handle begins and ends its own scope (sampling entry requests at the
// tracer's rate, always collecting wire-sampled ones, timing the rest
// against the slow threshold) and records into the tracer's ring for
// /tracez. Servers embedded in a memo server do not need this — the node's
// dispatch wrapper owns the set.
func WithTracer(tr *obs.Tracer) ServerOption {
	return func(s *Server) { s.tracer = tr }
}

// NewServer wraps a store.
func NewServer(id int, host string, store *Store, opts ...ServerOption) *Server {
	s := &Server{
		ID:    id,
		Host:  host,
		store: store,
		pool:  threadcache.New(threadcache.Config{}),
	}
	for _, o := range opts {
		o(s)
	}
	s.where = "folder-" + strconv.Itoa(id) + "@" + host
	return s
}

// OpenServer is the open-from-dir path: it opens (recovering if necessary)
// a durable store from dir and wraps it in a Server that owns it — Close
// flushes and closes the write-ahead log. storeOpts configure the store
// (shards, arena, forward hook); opts configure the server.
func OpenServer(id int, host, dir string, dcfg durable.Config,
	storeOpts []Option, opts ...ServerOption) (*Server, error) {
	store, err := OpenStore(dir, dcfg, storeOpts...)
	if err != nil {
		return nil, err
	}
	s := NewServer(id, host, store, opts...)
	s.ownsStore = true
	return s, nil
}

// Store exposes the underlying directory (for stats and direct tests).
func (s *Server) Store() *Store { return s.store }

// CacheStats reports the counters of the thread cache Serve dispatches
// through; they stay zero for a server embedded in a memo server.
func (s *Server) CacheStats() threadcache.Stats { return s.pool.Stats() }

// Close retires the thread cache and, for a server that owns its store
// (OpenServer), flushes and closes the write-ahead log.
func (s *Server) Close() {
	s.pool.Close()
	if s.ownsStore {
		_ = s.store.Close()
	}
}

// Crash hard-stops an owned durable store without flushing — the SIGKILL
// stand-in for the crash-recovery harness — and retires the thread cache.
func (s *Server) Crash() {
	if s.ownsStore {
		s.store.Crash()
	}
	s.pool.Close()
}

// Handle executes one request against this folder server. Blocking
// operations respect cancel. The caller provides its own concurrency: the
// memo server calls Handle on the cached thread already dispatching the
// request, and Serve calls it on this server's thread cache. A sampled
// request (one whose SpanSet an enclosing wrapper or this server's tracer
// attached) threads an opTrace through the store and emits folder and
// durable spans with the shard-lock wait, park time, and group-commit wait
// it accumulated. With a tracer attached (standalone folderserverd) the
// tracer also times unsampled requests against its slow threshold; an
// untimed request costs the Begin branches and no time.Now.
func (s *Server) Handle(q *wire.Request, cancel <-chan struct{}) *wire.Response {
	sc := s.tracer.Begin(q)
	if !sc.Timed() {
		return s.handle(q, cancel, nil)
	}
	var ot *opTrace
	if q.Spans != nil {
		ot = new(opTrace)
	}
	resp := s.handle(q, cancel, ot)
	sp := wire.Span{Node: s.where, Layer: "folder", Op: q.Op.String(), Folder: s.ID}
	if ot != nil {
		sp.Wait = ot.lockWaitNS
		// Aggregate park and group-commit time, anchored at the op start
		// (the store does not track individual intervals).
		if ot.parkNS > 0 {
			q.Spans.Add(wire.Span{Node: s.where, Layer: "folder", Op: "park",
				Folder: s.ID, Hop: q.TraceHop, Start: sc.StartNS(), Dur: ot.parkNS})
		}
		if ot.commitNS > 0 {
			q.Spans.Add(wire.Span{Node: s.where, Layer: "durable", Op: "commit",
				Folder: s.ID, Hop: q.TraceHop, Start: sc.StartNS(), Dur: ot.commitNS})
		}
	}
	return s.tracer.End(q, sc, resp, sp)
}

func (s *Server) handle(q *wire.Request, cancel <-chan struct{}, ot *opTrace) *wire.Response {
	switch q.Op {
	case wire.OpPut:
		if err := s.store.putToken(q.Key, q.Payload, q.Token, ot); err != nil {
			return wire.Errf("put: %v", err)
		}
		return wire.OK()
	case wire.OpPutDelayed:
		if err := s.store.putDelayedToken(q.Key, q.Key2, q.Payload, q.Token, ot); err != nil {
			return wire.Errf("put_delayed: %v", err)
		}
		return wire.OK()
	case wire.OpGet:
		payload, err := s.store.getToken(q.Key, q.Token, cancel, ot)
		if err != nil {
			return wire.Errf("get: %v", err)
		}
		return &wire.Response{Status: wire.StatusOK, Key: q.Key, Payload: payload}
	case wire.OpGetCopy:
		payload, err := s.store.getCopy(q.Key, cancel, ot)
		if err != nil {
			return wire.Errf("get_copy: %v", err)
		}
		return &wire.Response{Status: wire.StatusOK, Key: q.Key, Payload: payload}
	case wire.OpGetSkip:
		payload, ok, err := s.store.getSkipToken(q.Key, q.Token, ot)
		if err != nil {
			return wire.Errf("get_skip: %v", err)
		}
		if !ok {
			return &wire.Response{Status: wire.StatusEmpty}
		}
		return &wire.Response{Status: wire.StatusOK, Key: q.Key, Payload: payload}
	case wire.OpAltTake:
		// Empty key sets fail fast inside the store (ErrNoKeys).
		k, payload, err := s.store.altTakeToken(q.Keys, q.Token, cancel, ot)
		if err != nil {
			return wire.Errf("alt_take: %v", err)
		}
		return &wire.Response{Status: wire.StatusOK, Key: k, Payload: payload}
	case wire.OpWatch:
		k, err := s.store.watch(q.Keys, cancel, ot)
		if err != nil {
			return wire.Errf("watch: %v", err)
		}
		return &wire.Response{Status: wire.StatusWake, Key: k}
	case wire.OpPing:
		return wire.OK()
	}
	return wire.Errf("folder server: unsupported op %s", q.Op)
}

// Serve accepts connections on l and answers requests until the listener
// closes. Used by cmd/folderserverd; in the simulated cluster the memo
// server calls Handle directly. Each connection is driven by the batching
// rpc server: requests dispatch concurrently through the thread cache
// ("each request to a server will cause a thread to be created ... thread
// caching to avoid the overhead") and responses coalesce into batched
// frames.
func (s *Server) Serve(l transport.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		if err := s.pool.Submit(func() {
			_ = rpc.Serve(conn, s.Handle, s.pool.SubmitArg, s.batch)
			conn.Close()
		}); err != nil {
			// Shutting down. Closing the conn is the whole message: an rpc
			// peer has no request id to match an unsolicited response to.
			conn.Close()
		}
	}
}

// Collect emits this server's folder_* series, labeled by folder-server id:
// the store's op counters, directory occupancy gauges, and per-shard
// occupancy/waiter gauges. Runs at scrape time (gauges walk the shards under
// their locks), so it belongs in an obs.Collector, not on a hot path.
func (s *Server) Collect(e *obs.Emitter) {
	id := strconv.Itoa(s.ID)
	labels := map[string]string{"folder_server": id}
	st := s.store.Stats()
	e.Counter("folder_puts_total", "puts applied", labels, st.Puts)
	e.Counter("folder_takes_total", "memos taken (get/alt_take/alt_skip)", labels, st.Takes)
	e.Counter("folder_copies_total", "non-consuming reads (get_copy)", labels, st.Copies)
	e.Counter("folder_delayed_total", "put_delayed values hidden", labels, st.DelayedIn)
	e.Counter("folder_released_total", "delayed values released by triggers", labels, st.Released)
	e.Counter("folder_dup_puts_total", "tokened puts deduplicated (acknowledged without applying)", labels, st.DupPuts)
	e.Counter("folder_dup_takes_total", "tokened takes answered from the consumed-take cache", labels, st.DupTakes)
	e.Counter("folder_alt_scans_total", "shard-group visits by multi-folder scans", labels, st.AltScans)

	var folders, memos, delayed, waiters int
	for i := 0; i < s.store.ShardCount(); i++ {
		sh := s.store.ShardStats(i)
		folders += sh.Folders
		memos += sh.Memos
		delayed += sh.Delayed
		waiters += sh.Waiters
		shLabels := map[string]string{"folder_server": id, "shard": strconv.Itoa(i)}
		e.Gauge("folder_shard_memos", "visible memos per stripe", shLabels, int64(sh.Memos))
		e.Gauge("folder_shard_waiters", "waiter registrations per stripe", shLabels, int64(sh.Waiters))
	}
	e.Gauge("folder_folders", "live folders", labels, int64(folders))
	e.Gauge("folder_memos", "visible memos", labels, int64(memos))
	e.Gauge("folder_delayed_hidden", "hidden put_delayed values", labels, int64(delayed))
	e.Gauge("folder_waiters", "waiter registrations (blocked scans park several)", labels, int64(waiters))
}

// RegisterMetrics attaches this server's series to reg via a scrape-time
// collector. Standalone folderserverd calls it with obs.Default; under a
// memo server the node's own collector walks its folder servers instead.
func (s *Server) RegisterMetrics(reg *obs.Registry) {
	reg.RegisterCollector(s.Collect)
}

// String identifies the server in logs.
func (s *Server) String() string {
	return fmt.Sprintf("folder-server %d @ %s", s.ID, s.Host)
}
