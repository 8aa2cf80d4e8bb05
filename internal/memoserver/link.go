package memoserver

import (
	"math/rand/v2"
	"sync"

	"repro/internal/rpc"
	"repro/internal/transport"
	"repro/internal/wire"
)

// rlink is one resilient rpc link: a transport.Redialer managing the raw
// connection plus the rpc.Conn built on whatever the redialer currently
// holds. Memo-server peer links and the application↔local-memo-server
// client link both ride on it, so a dead link anywhere in Fig. 1's path
// heals the same way: fail fast, back off, re-dial, retry what is safe.
type rlink struct {
	rd  *transport.Redialer
	pol rpc.Policy
	res rpc.Resilience

	mu    sync.Mutex
	epoch uint64
	conn  *rpc.Conn
}

func newRlink(dial func() (transport.Conn, error), pol rpc.Policy, res rpc.Resilience) *rlink {
	return &rlink{rd: transport.NewRedialer(dial, res.Redial), pol: pol, res: res}
}

// get returns the live rpc connection (dialing or re-dialing under backoff
// if the link is down) and the epoch to report to fault on failure.
func (l *rlink) get(giveup <-chan struct{}) (*rpc.Conn, uint64, error) {
	ch, ep, err := l.rd.Get(giveup)
	if err != nil {
		return nil, 0, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	// Only a strictly newer epoch replaces the conn: a goroutine that slept
	// on an old Get result must not tear down the link a concurrent fault
	// cycle already rebuilt. Whatever is current is what we hand back (a
	// stale ch is dead anyway), with the matching epoch for fault.
	if l.conn == nil || ep > l.epoch {
		if l.conn != nil {
			l.conn.Close()
		}
		l.conn = rpc.NewConnResilient(ch, l.pol, l.res)
		l.epoch = ep
	}
	return l.conn, l.epoch, nil
}

// fault reports the connection handed out under epoch dead; the next get
// re-dials. Stale epochs are ignored, so concurrent callers may all fault.
func (l *rlink) fault(epoch uint64) { l.rd.Fault(epoch) }

func (l *rlink) close() {
	l.rd.Close()
	l.mu.Lock()
	c := l.conn
	l.conn = nil
	l.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// stats exposes the underlying redialer's health counters.
func (l *rlink) stats() transport.RedialerStats { return l.rd.Stats() }

// newToken mints a non-zero at-most-once dedup token. 64 random bits
// against a bounded dedup window (folder.DefaultTokenCap live tokens per
// store) puts the collision probability per put far below the failure
// rates the token exists to mask.
func newToken() uint64 {
	for {
		if t := rand.Uint64(); t != 0 {
			return t
		}
	}
}

// tokenizableOp reports ops that may carry a dedup token: the deposits
// whose blind retry would otherwise duplicate a memo, and the destructive
// reads whose blind retry would otherwise consume a second one (the folder
// server answers a retried tokened take from its consumed-take cache).
func tokenizableOp(op wire.Op) bool {
	switch op {
	case wire.OpPut, wire.OpPutDelayed, wire.OpGet, wire.OpGetSkip, wire.OpAltTake:
		return true
	}
	return false
}
