package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/pool"
)

// TCP is the real-network transport: length-prefixed message framing over
// net.Conn. Addresses are standard "host:port" strings. Listen with port 0
// picks a free port (query it via Listener.Addr).
type TCP struct {
	// IdleTimeout, when positive, arms a read deadline on every Recv: a
	// connection that stays silent for the whole window fails with
	// ErrIdleTimeout instead of wedging its reader forever behind a dead
	// peer. The error propagates like any Recv failure — the rpc read
	// loop (or a Mux read pump) tears down and reports it. Zero keeps
	// reads unbounded (blocking folder waits can legitimately leave a
	// connection quiet; enable the timeout where traffic — or rpc pings —
	// is guaranteed).
	IdleTimeout time.Duration
	// KeepAlivePeriod tunes TCP-level keep-alive probes on dialed and
	// accepted connections (0 = the kernel/runtime default).
	KeepAlivePeriod time.Duration
}

// ErrIdleTimeout reports a connection closed for exceeding TCP.IdleTimeout
// with no inbound traffic.
var ErrIdleTimeout = errors.New("transport: connection idle timeout")

// NewTCP returns the TCP transport with unbounded reads.
func NewTCP() *TCP { return &TCP{} }

// NewTCPIdle returns a TCP transport whose connections fail reads after
// idle silence — the hardened configuration for daemons.
func NewTCPIdle(idle time.Duration) *TCP { return &TCP{IdleTimeout: idle} }

// Name implements Transport.
func (*TCP) Name() string { return "tcp" }

// Dial implements Transport.
func (t *TCP) Dial(addr string) (Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return t.newConn(nc), nil
}

// Listen implements Transport.
func (t *TCP) Listen(addr string) (Listener, error) {
	nl, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return &tcpListener{nl: nl, t: t}, nil
}

type tcpListener struct {
	nl net.Listener
	t  *TCP
}

func (l *tcpListener) Accept() (Conn, error) {
	nc, err := l.nl.Accept()
	if err != nil {
		return nil, err
	}
	return l.t.newConn(nc), nil
}

func (l *tcpListener) Close() error { return l.nl.Close() }
func (l *tcpListener) Addr() string { return l.nl.Addr().String() }

// tcpConn frames messages as 4-byte big-endian length + payload.
type tcpConn struct {
	nc     net.Conn
	idle   time.Duration
	sendMu sync.Mutex
	// hdr, vec and bufs are Send's scratch (guarded by sendMu): the length
	// prefix and the payload leave in one writev, and reusing the vector
	// keeps that write allocation-free.
	hdr     [4]byte
	vec     [2][]byte
	bufs    net.Buffers
	recvMu  sync.Mutex
	readBuf [4]byte
}

func (t *TCP) newConn(nc net.Conn) *tcpConn {
	if tc, ok := nc.(*net.TCPConn); ok {
		// Memos are small request/response messages; Nagle hurts.
		_ = tc.SetNoDelay(true)
		_ = tc.SetKeepAlive(true)
		if t.KeepAlivePeriod > 0 {
			_ = tc.SetKeepAlivePeriod(t.KeepAlivePeriod)
		}
	}
	return &tcpConn{nc: nc, idle: t.IdleTimeout}
}

func (c *tcpConn) Send(msg []byte) error {
	if len(msg) > MaxFrame {
		return ErrTooLarge
	}
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	binary.BigEndian.PutUint32(c.hdr[:], uint32(len(msg)))
	c.vec[0], c.vec[1] = c.hdr[:], msg
	c.bufs = c.vec[:]
	// One write per frame: with TCP_NODELAY, separate prefix and payload
	// writes would be two segments and two reader wake-ups. WriteTo
	// consumes bufs and nils its entries, so msg is not retained.
	_, err := c.bufs.WriteTo(c.nc)
	return err
}

func (c *tcpConn) Recv() ([]byte, error) {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	if err := c.readFullIdle(c.readBuf[:]); err != nil {
		return nil, c.recvErr(err)
	}
	n := binary.BigEndian.Uint32(c.readBuf[:])
	if n > MaxFrame {
		return nil, ErrTooLarge
	}
	// Pooled, not a per-conn scratch buffer: requests the rpc server
	// decodes from a frame alias it until their handlers finish, so the
	// buffer's ownership must transfer out of the reader — the final
	// consumer recycles it with pool.Put.
	msg := pool.Get(int(n))[:n]
	if err := c.readFullIdle(msg); err != nil {
		pool.Put(msg)
		return nil, c.recvErr(err)
	}
	return msg, nil
}

// readFullIdle fills buf like io.ReadFull, but re-arms the idle deadline on
// every read that makes progress: the timeout measures silence, so a slow
// peer that keeps bytes trickling in is alive, while one that stalls for a
// whole window — mid-frame or between frames — trips the deadline.
func (c *tcpConn) readFullIdle(buf []byte) error {
	off := 0
	for off < len(buf) {
		if c.idle > 0 {
			if err := c.nc.SetReadDeadline(time.Now().Add(c.idle)); err != nil {
				return err
			}
		}
		n, err := c.nc.Read(buf[off:])
		off += n
		if err != nil {
			if off == len(buf) {
				// The buffer filled; an EOF alongside the last bytes is
				// next Recv's problem (io.ReadFull semantics).
				return nil
			}
			if err == io.EOF && off > 0 {
				return io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// recvErr normalizes read failures: clean EOFs become ErrClosed, deadline
// expiries become ErrIdleTimeout (wrapped with the cause) so the reader's
// teardown reports why the connection died.
func (c *tcpConn) recvErr(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return ErrClosed
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		_ = c.nc.Close()
		return fmt.Errorf("%w after %v: %v", ErrIdleTimeout, c.idle, err)
	}
	return err
}

func (c *tcpConn) Close() error       { return c.nc.Close() }
func (c *tcpConn) LocalAddr() string  { return c.nc.LocalAddr().String() }
func (c *tcpConn) RemoteAddr() string { return c.nc.RemoteAddr().String() }
