// Package transport implements D-Memo's network-communication foundation
// (paper §3.1.1).
//
// The abstraction is message-oriented: a Conn carries whole memos (framed
// byte slices), not byte streams. Three derivations are provided, selected at
// run time exactly as the paper's virtual functions select platform code:
//
//   - "inproc": goroutine/channel transport for processes in one OS process.
//   - "tcp": length-prefixed framing over net.Conn for real deployments.
//   - "sim": an in-process transport that imposes per-link latency and
//     bandwidth costs derived from the ADF topology, so a simulated cluster
//     exhibits the communication behaviour the paper's placement policy
//     reacts to.
//
// The package also supplies the paper's "derived transport layer" for hosts
// without one (the INMOS Transputer discussion): a Mux that provides virtual
// connections and packet fragmentation over any single Conn, letting a long
// message be amortized instead of blocking the channel (see mux.go).
package transport

import (
	"errors"
	"sync/atomic"
)

// Common errors.
var (
	// ErrClosed reports use of a closed connection or listener.
	ErrClosed = errors.New("transport: closed")
	// ErrTooLarge reports a message exceeding the frame limit.
	ErrTooLarge = errors.New("transport: message exceeds frame limit")
	// ErrNoListener reports a dial to an address nobody listens on.
	ErrNoListener = errors.New("transport: no listener at address")
)

// MaxFrame is the largest single framed message accepted by any transport.
// The rpc layer rejects larger messages per call; the Mux fragments them.
const MaxFrame = 16 << 20

// Conn is a bidirectional message connection.
type Conn interface {
	// Send transmits one message. Safe for concurrent use. Implementations
	// must not retain msg after returning: senders on the hot path recycle
	// their buffers (internal/pool) the moment Send returns.
	Send(msg []byte) error
	// Recv blocks for the next message. Safe for one concurrent reader.
	// Ownership of the returned buffer transfers to the caller; the final
	// consumer may recycle it with pool.Put (buffers originate from
	// internal/pool on every built-in transport).
	Recv() ([]byte, error)
	// Close releases the connection; pending and future Recv calls fail
	// with ErrClosed.
	Close() error
	// LocalAddr and RemoteAddr report the endpoint addresses.
	LocalAddr() string
	RemoteAddr() string
}

// Listener accepts inbound connections.
type Listener interface {
	// Accept blocks for the next inbound connection.
	Accept() (Conn, error)
	// Close stops listening.
	Close() error
	// Addr reports the bound address.
	Addr() string
}

// Transport is the abstract factory for connections — the paper's transport
// class, able to "simultaneously interact with different protocols in an
// application".
type Transport interface {
	// Dial connects to addr.
	Dial(addr string) (Conn, error)
	// Listen binds addr.
	Listen(addr string) (Listener, error)
	// Name identifies the protocol ("inproc", "tcp", "sim").
	Name() string
}

// Stats counts transport activity. The Broadcasts counter exists to prove
// the §5 claim "No broadcasting is done by the system": nothing in this
// repository increments it, and tests assert it stays zero.
type Stats struct {
	MessagesSent  atomic.Int64
	BytesSent     atomic.Int64
	MessagesRecvd atomic.Int64
	BytesRecvd    atomic.Int64
	Dials         atomic.Int64
	Accepts       atomic.Int64
	Broadcasts    atomic.Int64
}

// Snapshot is a point-in-time copy of Stats.
type Snapshot struct {
	MessagesSent  int64
	BytesSent     int64
	MessagesRecvd int64
	BytesRecvd    int64
	Dials         int64
	Accepts       int64
	Broadcasts    int64
}

// Snapshot copies the counters.
func (s *Stats) Snapshot() Snapshot {
	return Snapshot{
		MessagesSent:  s.MessagesSent.Load(),
		BytesSent:     s.BytesSent.Load(),
		MessagesRecvd: s.MessagesRecvd.Load(),
		BytesRecvd:    s.BytesRecvd.Load(),
		Dials:         s.Dials.Load(),
		Accepts:       s.Accepts.Load(),
		Broadcasts:    s.Broadcasts.Load(),
	}
}

// statsConn decorates a Conn with counting.
type statsConn struct {
	Conn
	stats *Stats
}

func (c *statsConn) Send(msg []byte) error {
	if err := c.Conn.Send(msg); err != nil {
		return err
	}
	c.stats.MessagesSent.Add(1)
	c.stats.BytesSent.Add(int64(len(msg)))
	return nil
}

func (c *statsConn) Recv() ([]byte, error) {
	msg, err := c.Conn.Recv()
	if err != nil {
		return nil, err
	}
	c.stats.MessagesRecvd.Add(1)
	c.stats.BytesRecvd.Add(int64(len(msg)))
	return msg, nil
}

// WithStats decorates a transport so every connection updates stats.
func WithStats(t Transport, stats *Stats) Transport {
	return &statsTransport{inner: t, stats: stats}
}

type statsTransport struct {
	inner Transport
	stats *Stats
}

func (t *statsTransport) Name() string { return t.inner.Name() }

func (t *statsTransport) Dial(addr string) (Conn, error) {
	c, err := t.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	t.stats.Dials.Add(1)
	return &statsConn{Conn: c, stats: t.stats}, nil
}

func (t *statsTransport) Listen(addr string) (Listener, error) {
	l, err := t.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &statsListener{Listener: l, stats: t.stats}, nil
}

type statsListener struct {
	Listener
	stats *Stats
}

func (l *statsListener) Accept() (Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.stats.Accepts.Add(1)
	return &statsConn{Conn: c, stats: l.stats}, nil
}
