package rpc

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/symbol"
	"repro/internal/transport"
	"repro/internal/wire"
)

// pipe builds a connected client/server pair over the in-process
// transport, with the server side running Serve(h).
func pipe(t *testing.T, h Handler, submit SubmitFunc, pol Policy) *Conn {
	t.Helper()
	ip := transport.NewInProc()
	l, err := ip.Listen("srv/rpc")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go serveLoop(l, h, submit, pol)
	conn, err := ip.Dial("srv/rpc")
	if err != nil {
		t.Fatal(err)
	}
	c := NewConn(conn, pol)
	t.Cleanup(func() { c.Close() })
	return c
}

// serveLoop accepts connections on l and drives Serve(h) on each, the way
// the daemons do.
func serveLoop(l transport.Listener, h Handler, submit SubmitFunc, pol Policy) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		go func() {
			_ = Serve(conn, h, submit, pol)
			conn.Close()
		}()
	}
}

// echoHandler returns the request payload back.
func echoHandler(q *wire.Request, _ <-chan struct{}) *wire.Response {
	return &wire.Response{Status: wire.StatusOK, Key: q.Key, Payload: q.Payload}
}

func TestCallRoundTrip(t *testing.T) {
	c := pipe(t, echoHandler, nil, Policy{})
	for i := 0; i < 10; i++ {
		payload := []byte(fmt.Sprintf("msg-%d", i))
		resp, err := c.Call(&wire.Request{Op: wire.OpPut, Key: symbol.K(7), Payload: payload}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != wire.StatusOK || string(resp.Payload) != string(payload) {
			t.Fatalf("resp %d: %+v", i, resp)
		}
	}
}

func TestConcurrentCallsPipelineOnOneChannel(t *testing.T) {
	var inflight, maxInflight atomic.Int64
	h := func(q *wire.Request, _ <-chan struct{}) *wire.Response {
		n := inflight.Add(1)
		for {
			m := maxInflight.Load()
			if n <= m || maxInflight.CompareAndSwap(m, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		inflight.Add(-1)
		return echoHandler(q, nil)
	}
	c := pipe(t, h, nil, Policy{})
	const callers = 16
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := c.Call(&wire.Request{Op: wire.OpPing, Payload: []byte{byte(i)}}, nil)
			if err != nil {
				errs <- err
				return
			}
			if len(resp.Payload) != 1 || resp.Payload[0] != byte(i) {
				errs <- fmt.Errorf("caller %d got %v", i, resp.Payload)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if m := maxInflight.Load(); m < 2 {
		t.Fatalf("requests never overlapped on the server (max in-flight %d); pipelining broken", m)
	}
}

// slowConn delays every Send, emulating a link with per-message cost, and
// counts messages. Batching exists to amortize exactly this cost.
type slowConn struct {
	transport.Conn
	delay time.Duration
	sent  *atomic.Int64
}

func (c *slowConn) Send(msg []byte) error {
	time.Sleep(c.delay)
	c.sent.Add(1)
	return c.Conn.Send(msg)
}

// TestBatchingCoalesces verifies concurrent calls share frames on a busy
// wire: while one frame is in flight, companion requests accumulate and
// ship together, so far fewer than 2N messages cross the transport for N
// concurrent calls.
func TestBatchingCoalesces(t *testing.T) {
	ip := transport.NewInProc()
	l, err := ip.Listen("srv/rpc")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const callers = 32
	const wireDelay = time.Millisecond
	var sent atomic.Int64
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		Serve(&slowConn{Conn: conn, delay: wireDelay, sent: &sent}, echoHandler, nil, Policy{})
	}()
	conn, err := ip.Dial("srv/rpc")
	if err != nil {
		t.Fatal(err)
	}
	c := NewConn(&slowConn{Conn: conn, delay: wireDelay, sent: &sent}, Policy{})
	defer c.Close()

	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Call(&wire.Request{Op: wire.OpPing}, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	// Unbatched, callers requests + callers responses would cross as
	// 2*callers messages.
	if n := sent.Load(); n >= 2*callers {
		t.Fatalf("no coalescing: %d messages for %d calls", n, callers)
	} else {
		t.Logf("%d transport messages for %d concurrent calls", n, callers)
	}
}

func TestOutOfOrderCompletion(t *testing.T) {
	// First call blocks until the second completes; with pipelining the
	// second response overtakes the first.
	unblock := make(chan struct{})
	h := func(q *wire.Request, cancel <-chan struct{}) *wire.Response {
		if q.Op == wire.OpGet {
			select {
			case <-unblock:
			case <-cancel:
				return wire.Errf("canceled")
			}
		}
		return echoHandler(q, nil)
	}
	c := pipe(t, h, nil, Policy{})

	slow := make(chan *wire.Response, 1)
	go func() {
		resp, err := c.Call(&wire.Request{Op: wire.OpGet, Payload: []byte("slow")}, nil)
		if err == nil {
			slow <- resp
		}
	}()
	time.Sleep(5 * time.Millisecond) // let the slow call reach the server

	resp, err := c.Call(&wire.Request{Op: wire.OpPing, Payload: []byte("fast")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Payload) != "fast" {
		t.Fatalf("fast call got %q", resp.Payload)
	}
	select {
	case <-slow:
		t.Fatal("slow call completed before its unblock")
	default:
	}
	close(unblock)
	select {
	case resp := <-slow:
		if string(resp.Payload) != "slow" {
			t.Fatalf("slow call got %q", resp.Payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("slow call never completed")
	}
}

func TestCancelUnblocksServer(t *testing.T) {
	started := make(chan struct{}, 1)
	canceled := make(chan struct{}, 1)
	h := func(q *wire.Request, cancel <-chan struct{}) *wire.Response {
		started <- struct{}{}
		select {
		case <-cancel:
			canceled <- struct{}{}
			return wire.Errf("canceled")
		case <-time.After(5 * time.Second):
			return wire.Errf("cancel never propagated")
		}
	}
	c := pipe(t, h, nil, Policy{})

	cancel := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(&wire.Request{Op: wire.OpGet}, cancel)
		done <- err
	}()
	<-started
	close(cancel)
	if err := <-done; err != ErrCanceled {
		t.Fatalf("Call returned %v, want ErrCanceled", err)
	}
	select {
	case <-canceled:
	case <-time.After(2 * time.Second):
		t.Fatal("server handler never saw the cancel")
	}
	// The connection remains alive after a cancel.
	if c.Err() != nil {
		t.Fatalf("connection died after cancel: %v", c.Err())
	}
}

// answerFirstConn is a client transport that answers each request before
// Send returns and then closes the caller's cancel channel, once the
// response sits in the call's channel — the cancel-after-answer race in
// its worst interleaving.
type answerFirstConn struct {
	c      *Conn
	cancel chan struct{}
	in     chan []byte
}

func (a *answerFirstConn) Send(msg []byte) error {
	_, entries, err := wire.DecodeBatch(msg)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.Cancel || e.Heartbeat {
			continue
		}
		a.c.mu.Lock()
		ca := a.c.pending[e.ID]
		a.c.mu.Unlock()
		a.in <- wire.AppendBatch(nil, wire.BatchResponse, []wire.BatchEntry{
			{ID: e.ID, Msg: wire.AppendResponse(nil, wire.OK())},
		})
		for len(ca.rc) == 0 {
			runtime.Gosched()
		}
		close(a.cancel)
	}
	return nil
}

func (a *answerFirstConn) Recv() ([]byte, error) {
	if buf, ok := <-a.in; ok {
		return buf, nil
	}
	return nil, transport.ErrClosed
}

func (a *answerFirstConn) Close() error       { return nil }
func (a *answerFirstConn) LocalAddr() string  { return "cli" }
func (a *answerFirstConn) RemoteAddr() string { return "srv" }

// TestAnsweredCallSurvivesLateCancel: a response that reached the caller
// before it noticed its cancel is returned, not dropped — for a take, the
// server already consumed the memo, and ErrCanceled would lose it.
func TestAnsweredCallSurvivesLateCancel(t *testing.T) {
	a := &answerFirstConn{in: make(chan []byte, 1)}
	a.c = NewConnResilient(a, Policy{}, Resilience{})
	defer a.c.Close()
	for i := 0; i < 32; i++ {
		a.cancel = make(chan struct{})
		resp, err := a.c.Call(&wire.Request{Op: wire.OpGet}, a.cancel)
		if err != nil || resp.Status != wire.StatusOK {
			t.Fatalf("call %d: %+v %v, want the response that arrived before the cancel", i, resp, err)
		}
	}
}

// TestOneEntryBatchRoundTrip drives Serve with one request per frame, as a
// lone caller (or a wire-debugging session) would: each call is a one-entry
// batch, answered in order with a one-entry response batch.
func TestOneEntryBatchRoundTrip(t *testing.T) {
	c := pipe(t, echoHandler, nil, Policy{MaxCount: 1})
	for i := 0; i < 3; i++ {
		resp, err := c.Call(&wire.Request{Op: wire.OpPing, Payload: []byte{byte(i)}}, nil)
		if err != nil || resp.Status != wire.StatusOK || resp.Payload[0] != byte(i) {
			t.Fatalf("one-entry batch response: %+v %v", resp, err)
		}
	}
	// A malformed lone request gets an error response, not a dead channel.
	ch := rawChannel(t, echoHandler, nil)
	if err := ch.Send(wire.AppendBatch(nil, wire.BatchRequest, []wire.BatchEntry{{ID: 1, Msg: []byte{0xFF, 0xFF}}})); err != nil {
		t.Fatal(err)
	}
	buf, err := ch.Recv()
	if err != nil {
		t.Fatal(err)
	}
	kind, entries, err := wire.DecodeBatch(buf)
	if err != nil || kind != wire.BatchResponse || len(entries) != 1 || entries[0].ID != 1 {
		t.Fatalf("malformed request reply: %v %+v %v", kind, entries, err)
	}
	if resp, err := wire.DecodeResponse(entries[0].Msg); err != nil || resp.Status != wire.StatusErr {
		t.Fatalf("malformed request response: %+v %v", resp, err)
	}
}

// TestNonBatchFrameEndsServe: a bare encoded request is not rpc framing.
// Serve returns a protocol error and sends nothing back.
func TestNonBatchFrameEndsServe(t *testing.T) {
	served := make(chan error, 1)
	ch := rawChannel(t, echoHandler, served)
	if err := ch.Send(wire.EncodeRequest(&wire.Request{Op: wire.OpPing})); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-served:
		if err == nil || !strings.Contains(err.Error(), "not a batch frame") {
			t.Fatalf("Serve returned %v, want a non-batch protocol error", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve kept running after a non-batch frame")
	}
	got := make(chan []byte, 1)
	go func() {
		if buf, err := ch.Recv(); err == nil {
			got <- buf
		}
	}()
	select {
	case buf := <-got:
		t.Fatalf("Serve answered a non-batch frame: % x", buf)
	case <-time.After(50 * time.Millisecond):
	}
}

// rawChannel dials a Serve(h) endpoint and returns the bare transport
// conn, so a test can write frames no Conn would. When served is non-nil it
// receives Serve's return value.
func rawChannel(t *testing.T, h Handler, served chan<- error) transport.Conn {
	t.Helper()
	ip := transport.NewInProc()
	l, err := ip.Listen("srv/rpc")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		err = Serve(conn, h, nil, Policy{})
		if served != nil {
			served <- err
		}
	}()
	conn, err := ip.Dial("srv/rpc")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func TestMalformedBatchEntryGetsErrorResponse(t *testing.T) {
	ch := rawChannel(t, echoHandler, nil)
	frame := wire.AppendBatch(nil, wire.BatchRequest, []wire.BatchEntry{
		{ID: 9, Msg: []byte{0xFF, 0xFF}},
		{ID: 10, Msg: wire.EncodeRequest(&wire.Request{Op: wire.OpPing})},
	})
	if err := ch.Send(frame); err != nil {
		t.Fatal(err)
	}
	got := map[uint64]wire.Status{}
	for len(got) < 2 {
		buf, err := ch.Recv()
		if err != nil {
			t.Fatal(err)
		}
		kind, entries, err := wire.DecodeBatch(buf)
		if err != nil || kind != wire.BatchResponse {
			t.Fatalf("%v %v", kind, err)
		}
		for _, e := range entries {
			resp, err := wire.DecodeResponse(e.Msg)
			if err != nil {
				t.Fatal(err)
			}
			got[e.ID] = resp.Status
		}
	}
	if got[9] != wire.StatusErr || got[10] != wire.StatusOK {
		t.Fatalf("statuses: %v", got)
	}
}

func TestConnFailsPendingOnTeardown(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	h := func(q *wire.Request, cancel <-chan struct{}) *wire.Response {
		select {
		case <-block:
		case <-cancel:
		}
		return wire.Errf("late")
	}
	c := pipe(t, h, nil, Policy{})
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(&wire.Request{Op: wire.OpGet}, nil)
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	c.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("pending call succeeded after Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending call hung after Close")
	}
	if _, err := c.Call(&wire.Request{Op: wire.OpPing}, nil); err == nil {
		t.Fatal("call on closed conn succeeded")
	}
}

func TestSubmitThroughThreadCache(t *testing.T) {
	var submitted atomic.Int64
	submit := func(fn func(any), arg any) error {
		submitted.Add(1)
		go fn(arg)
		return nil
	}
	c := pipe(t, echoHandler, submit, Policy{})
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Call(&wire.Request{Op: wire.OpPing}, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if submitted.Load() != n {
		t.Fatalf("submitted %d tasks, want %d", submitted.Load(), n)
	}
}

func TestPolicyDefaults(t *testing.T) {
	p := Policy{}.withDefaults()
	if p.MaxCount != DefaultMaxCount || p.MaxBytes != DefaultMaxBytes {
		t.Fatalf("defaults: %+v", p)
	}
	u := Policy{MaxCount: 1}.withDefaults()
	if u.MaxCount != 1 {
		t.Fatalf("MaxCount 1 overridden: %+v", u)
	}
}
