package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/pool"
)

// Mux is the paper's derived transport layer (§3.1.1): it multiplexes many
// virtual connections over one physical Conn and fragments large messages
// into packets, so "the communication cost [is] amortized over time and
// some useful processing [can] be done" instead of one long transfer
// monopolizing the link — the INMOS Transputer remedy described in the paper.
//
// Packet layout: uvarint channel id, uvarint message id, one flag byte
// (bit 0: more fragments follow; bit 1: channel close), fragment payload.
// Fragments of one message are contiguous per channel because Send holds the
// channel's lock, and the underlying Conn preserves order.
type Mux struct {
	conn Conn
	mtu  int

	mu       sync.Mutex
	channels map[uint64]*Channel
	accepts  chan *Channel
	done     chan struct{}
	closed   bool
	err      error

	sendMu sync.Mutex
}

const (
	flagMore  = 1 << 0
	flagClose = 1 << 1
)

// muxHeaderSpace is the worst-case size of a mux packet header (two uvarints
// plus the flag byte).
const muxHeaderSpace = 2*binary.MaxVarintLen64 + 1

// ErrMuxClosed reports use of a closed Mux or Channel.
var ErrMuxClosed = errors.New("transport: mux closed")

// defaultMTU is the default fragment payload: comfortably above a full
// default rpc batch frame, so only outsized memos fragment.
const defaultMTU = 128 << 10

// NewMux wraps conn with virtual connections. mtu is the maximum fragment
// payload; messages larger than mtu are fragmented. Start the read pump with
// Run (usually in a goroutine).
func NewMux(conn Conn, mtu int) *Mux {
	if mtu <= 0 {
		mtu = defaultMTU
	}
	return &Mux{
		conn:     conn,
		mtu:      mtu,
		channels: make(map[uint64]*Channel),
		accepts:  make(chan *Channel, 16),
		done:     make(chan struct{}),
	}
}

// Channel returns the virtual connection with the given id, creating it if
// needed. Both endpoints address a virtual connection by the same id.
func (m *Mux) Channel(id uint64) *Channel {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.channelLocked(id)
}

func (m *Mux) channelLocked(id uint64) *Channel {
	if ch, ok := m.channels[id]; ok {
		return ch
	}
	ch := &Channel{
		id:   id,
		mux:  m,
		in:   make(chan []byte, 64),
		done: make(chan struct{}),
	}
	if m.closed {
		// The mux already tore down; hand back a dead channel rather
		// than one that would block forever.
		ch.closeRemote()
		return ch
	}
	m.channels[id] = ch
	return ch
}

// Accept blocks for the next channel first opened by the peer.
func (m *Mux) Accept() (*Channel, error) {
	select {
	case ch := <-m.accepts:
		return ch, nil
	case <-m.done:
		// Drain channels that raced with teardown.
		select {
		case ch := <-m.accepts:
			return ch, nil
		default:
			return nil, m.errOr(ErrMuxClosed)
		}
	}
}

func (m *Mux) errOr(def error) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return m.err
	}
	return def
}

// Run pumps inbound packets to channels until the connection fails or the
// Mux is closed. It returns the terminal error (ErrClosed on clean close).
func (m *Mux) Run() error {
	var assembling = make(map[uint64]*pendingMsg)
	for {
		pkt, err := m.conn.Recv()
		if err != nil {
			m.teardown(err)
			return err
		}
		chID, n1 := binary.Uvarint(pkt)
		if n1 <= 0 {
			m.teardown(fmt.Errorf("transport: mux: bad packet header"))
			return m.err
		}
		msgID, n2 := binary.Uvarint(pkt[n1:])
		if n2 <= 0 || n1+n2 >= len(pkt) {
			m.teardown(fmt.Errorf("transport: mux: truncated packet"))
			return m.err
		}
		flags := pkt[n1+n2]
		payload := pkt[n1+n2+1:]

		m.mu.Lock()
		_, existed := m.channels[chID]
		ch := m.channelLocked(chID)
		closed := m.closed
		m.mu.Unlock()
		if closed {
			return ErrMuxClosed
		}
		if !existed {
			select {
			case m.accepts <- ch:
			default: // nobody accepting; channel still reachable by id
			}
		}

		if flags&flagClose != 0 {
			ch.closeRemote()
			continue
		}

		p := assembling[chID]
		if p == nil {
			if flags&flagMore == 0 {
				// Fast path: the whole message arrived in one packet.
				// Deliver the payload aliased into the received buffer —
				// ownership of pkt transfers to the channel's consumer (the
				// final consumer may pool.Put it).
				ch.deliver(payload)
				continue
			}
			p = &pendingMsg{id: msgID}
			assembling[chID] = p
		}
		if p.id != msgID {
			m.teardown(fmt.Errorf("transport: mux: interleaved fragments on channel %d", chID))
			return m.err
		}
		if p.buf == nil {
			p.buf = pool.Get(2 * len(payload))
		}
		p.buf = append(p.buf, payload...)
		// The fragment is copied out; its packet buffer can recycle now.
		pool.Put(pkt)
		if flags&flagMore == 0 {
			msg := p.buf
			delete(assembling, chID)
			ch.deliver(msg)
		}
	}
}

type pendingMsg struct {
	id  uint64
	buf []byte
}

func (m *Mux) teardown(err error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.err = err
	chans := make([]*Channel, 0, len(m.channels))
	for _, ch := range m.channels {
		chans = append(chans, ch)
	}
	m.mu.Unlock()
	for _, ch := range chans {
		ch.closeRemote()
	}
	close(m.done)
	_ = m.conn.Close()
}

// Close shuts the Mux and the underlying connection down.
func (m *Mux) Close() error {
	m.teardown(ErrMuxClosed)
	return nil
}

// sendPacket writes one framed packet to the shared connection. The packet
// is assembled in a pooled buffer (header + payload copy) and recycled once
// the underlying Send returns — Conn.Send must not retain its argument.
func (m *Mux) sendPacket(chID, msgID uint64, flags byte, payload []byte) error {
	buf := pool.Get(muxHeaderSpace + len(payload))
	buf = binary.AppendUvarint(buf, chID)
	buf = binary.AppendUvarint(buf, msgID)
	buf = append(buf, flags)
	buf = append(buf, payload...)
	m.sendMu.Lock()
	err := m.conn.Send(buf)
	m.sendMu.Unlock()
	pool.Put(buf)
	return err
}

// Channel is one virtual connection over a Mux. It satisfies Conn.
type Channel struct {
	id  uint64
	mux *Mux

	sendMu sync.Mutex
	nextID uint64

	in       chan []byte
	done     chan struct{}
	closeOne sync.Once
}

// Send fragments msg into MTU-sized packets and transmits them. Other
// channels' packets may interleave between fragments — that is the point.
func (c *Channel) Send(msg []byte) error {
	select {
	case <-c.done:
		return ErrMuxClosed
	default:
	}
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	id := c.nextID
	c.nextID++
	mtu := c.mux.mtu
	if len(msg) == 0 {
		return c.mux.sendPacket(c.id, id, 0, nil)
	}
	for off := 0; off < len(msg); off += mtu {
		end := off + mtu
		flags := byte(flagMore)
		if end >= len(msg) {
			end = len(msg)
			flags = 0
		}
		if err := c.mux.sendPacket(c.id, id, flags, msg[off:end]); err != nil {
			return err
		}
	}
	return nil
}

// Recv blocks for the next complete message.
func (c *Channel) Recv() ([]byte, error) {
	select {
	case msg := <-c.in:
		return msg, nil
	case <-c.done:
		// Drain delivered-but-unread messages.
		select {
		case msg := <-c.in:
			return msg, nil
		default:
			return nil, ErrMuxClosed
		}
	}
}

func (c *Channel) deliver(msg []byte) {
	select {
	case c.in <- msg:
	case <-c.done:
	}
}

func (c *Channel) closeRemote() {
	c.closeOne.Do(func() { close(c.done) })
}

// Close tells the peer the channel is finished and releases it locally.
func (c *Channel) Close() error {
	var err error
	c.closeOne.Do(func() {
		err = c.mux.sendPacket(c.id, 0, flagClose, nil)
		close(c.done)
	})
	return err
}

// ID reports the channel id.
func (c *Channel) ID() uint64 { return c.id }

// Done returns a channel closed when this virtual connection dies (either
// side closed it, or the Mux tore down).
func (c *Channel) Done() <-chan struct{} { return c.done }

// LocalAddr implements Conn.
func (c *Channel) LocalAddr() string {
	return fmt.Sprintf("%s#%d", c.mux.conn.LocalAddr(), c.id)
}

// RemoteAddr implements Conn.
func (c *Channel) RemoteAddr() string {
	return fmt.Sprintf("%s#%d", c.mux.conn.RemoteAddr(), c.id)
}
