package obs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// DebugServer is the one debug HTTP endpoint a daemon exposes (-debug-addr):
// /metrics (Prometheus text format over every attached registry), /statusz
// (JSON snapshot plus trace totals and link health), /tracez (the trace
// ring, slow requests included), and /debug/pprof/* (the net/http/pprof handlers, mounted on this server's own
// mux rather than a bare http.ListenAndServe goroutine — so profiling shares
// the lifecycle, the listener closes on Shutdown, and a serve error surfaces
// on Done instead of being logged and lost).
type DebugServer struct {
	regs  []*Registry
	ring  *TraceRing
	links func() any

	ln   net.Listener
	srv  *http.Server
	done chan error
}

// DebugOption customizes a DebugServer at construction.
type DebugOption func(*DebugServer)

// WithTraceRing attaches the node's trace ring: /tracez serves it, and
// /statusz reports its totals.
func WithTraceRing(r *TraceRing) DebugOption {
	return func(d *DebugServer) { d.ring = r }
}

// WithLinkStatus attaches a per-scrape link-health snapshot (a daemon's
// Node.LinkStats or a client's Stats) rendered under "links" in /statusz.
func WithLinkStatus(fn func() any) DebugOption {
	return func(d *DebugServer) { d.links = fn }
}

// NewDebugServer builds a debug server for addr serving the given
// registries (scraped in order). Call Start to bind and serve.
func NewDebugServer(addr string, regs []*Registry, opts ...DebugOption) *DebugServer {
	d := &DebugServer{regs: regs, done: make(chan error, 1)}
	for _, o := range opts {
		o(d)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", d.handleMetrics)
	mux.HandleFunc("/statusz", d.handleStatusz)
	mux.HandleFunc("/tracez", d.handleTracez)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	d.srv = &http.Server{
		Addr:              addr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
	}
	return d
}

// Start binds the address and serves in the background. A failed bind is
// returned here; a later serve failure is delivered on Done.
func (d *DebugServer) Start() error {
	ln, err := net.Listen("tcp", d.srv.Addr)
	if err != nil {
		return fmt.Errorf("obs: debug server listen %s: %w", d.srv.Addr, err)
	}
	d.ln = ln
	go func() {
		err := d.srv.Serve(ln)
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		d.done <- err
	}()
	return nil
}

// Addr reports the bound address (useful with ":0" in tests). Empty before
// Start.
func (d *DebugServer) Addr() string {
	if d.ln == nil {
		return ""
	}
	return d.ln.Addr().String()
}

// Done delivers the serve loop's terminal error: nil after a clean
// Shutdown, or the failure that killed the listener.
func (d *DebugServer) Done() <-chan error { return d.done }

// Shutdown gracefully stops the server: no new connections, in-flight
// requests drain until ctx expires.
func (d *DebugServer) Shutdown(ctx context.Context) error {
	return d.srv.Shutdown(ctx)
}

func (d *DebugServer) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	for _, r := range d.regs {
		if err := r.WriteProm(w); err != nil {
			return
		}
	}
}

// statuszBody is the /statusz JSON shape.
type statuszBody struct {
	Metrics  []seriesJSON `json:"metrics"`
	Links    any          `json:"links,omitempty"`
	SlowTot  int64        `json:"slow_requests_total"`
	TraceTot int64        `json:"traces_total"`
}

func (d *DebugServer) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	var body statuszBody
	for _, r := range d.regs {
		body.Metrics = append(body.Metrics, r.Snapshot()...)
	}
	if d.links != nil {
		body.Links = d.links()
	}
	body.SlowTot = d.ring.SlowRecorded()
	body.TraceTot = d.ring.Recorded()
	writeJSON(w, body)
}

// handleTracez serves the trace ring: every recent sample, or — with
// ?trace=<id> (decimal) — only that trace's samples, and with ?slow=1 only
// the samples marked slow. `memo trace` scrapes this from every node and
// merges the timelines.
func (d *DebugServer) handleTracez(w http.ResponseWriter, req *http.Request) {
	recent := d.ring.Recent()
	if s := req.URL.Query().Get("trace"); s != "" {
		id, err := strconv.ParseUint(s, 0, 64)
		if err != nil {
			http.Error(w, "tracez: bad trace id: "+err.Error(), http.StatusBadRequest)
			return
		}
		recent = d.ring.Get(id)
	}
	if req.URL.Query().Get("slow") == "1" {
		slow := recent[:0]
		for _, ts := range recent {
			if ts.Slow {
				slow = append(slow, ts)
			}
		}
		recent = slow
	}
	writeJSON(w, struct {
		Total  int64         `json:"total"`
		Recent []TraceSample `json:"recent"`
	}{d.ring.Recorded(), recent})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
