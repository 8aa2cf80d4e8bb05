package folder

import (
	"sync"
	"testing"
	"time"

	"repro/internal/rpc"
	"repro/internal/symbol"
	"repro/internal/transport"
	"repro/internal/wire"
)

func newTestServer(t *testing.T) *Server {
	t.Helper()
	s := NewServer(0, "testhost", NewStore())
	t.Cleanup(s.Close)
	return s
}

func TestHandleOps(t *testing.T) {
	s := newTestServer(t)
	k := symbol.K(1)
	k2 := symbol.K(2)

	if r := s.Handle(&wire.Request{Op: wire.OpPing}, never); r.Status != wire.StatusOK {
		t.Fatalf("ping: %+v", r)
	}
	if r := s.Handle(&wire.Request{Op: wire.OpPut, Key: k, Payload: []byte("v")}, never); r.Status != wire.StatusOK {
		t.Fatalf("put: %+v", r)
	}
	if r := s.Handle(&wire.Request{Op: wire.OpGetCopy, Key: k}, never); r.Status != wire.StatusOK || string(r.Payload) != "v" {
		t.Fatalf("get_copy: %+v", r)
	}
	if r := s.Handle(&wire.Request{Op: wire.OpGet, Key: k}, never); r.Status != wire.StatusOK || string(r.Payload) != "v" {
		t.Fatalf("get: %+v", r)
	}
	if r := s.Handle(&wire.Request{Op: wire.OpGetSkip, Key: k}, never); r.Status != wire.StatusEmpty {
		t.Fatalf("get_skip on empty: %+v", r)
	}
	if r := s.Handle(&wire.Request{Op: wire.OpPutDelayed, Key: k, Key2: k2, Payload: []byte("d")}, never); r.Status != wire.StatusOK {
		t.Fatalf("put_delayed: %+v", r)
	}
	if r := s.Handle(&wire.Request{Op: wire.OpPut, Key: k, Payload: nil}, never); r.Status != wire.StatusOK {
		t.Fatalf("trigger put: %+v", r)
	}
	if r := s.Handle(&wire.Request{Op: wire.OpGetSkip, Key: k2}, never); r.Status != wire.StatusOK || string(r.Payload) != "d" {
		t.Fatalf("released value: %+v", r)
	}
	// Alt and watch argument validation.
	if r := s.Handle(&wire.Request{Op: wire.OpAltTake}, never); r.Status != wire.StatusErr {
		t.Fatalf("alt with no keys: %+v", r)
	}
	if r := s.Handle(&wire.Request{Op: wire.OpWatch}, never); r.Status != wire.StatusErr {
		t.Fatalf("watch with no keys: %+v", r)
	}
	// Register is a memo-server op, not a folder-server op.
	if r := s.Handle(&wire.Request{Op: wire.OpRegister}, never); r.Status != wire.StatusErr {
		t.Fatalf("register: %+v", r)
	}
}

func TestHandleCanceledGetReportsError(t *testing.T) {
	s := newTestServer(t)
	cancel := make(chan struct{})
	got := make(chan *wire.Response, 1)
	go func() {
		got <- s.Handle(&wire.Request{Op: wire.OpGet, Key: symbol.K(5)}, cancel)
	}()
	time.Sleep(10 * time.Millisecond)
	close(cancel)
	select {
	case r := <-got:
		if r.Status != wire.StatusErr {
			t.Fatalf("canceled get: %+v", r)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancel ignored")
	}
}

// TestServeOverTCP drives the standalone wire-protocol server (the
// cmd/folderserverd deployment) over a real TCP socket.
func TestServeOverTCP(t *testing.T) {
	s := newTestServer(t)
	l, err := transport.NewTCP().Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go s.Serve(l)

	conn, err := transport.NewTCP().Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	mux := transport.NewMux(conn, 4096)
	go mux.Run()
	t.Cleanup(func() { mux.Close() })

	// Each call travels as a one-entry batch frame — the only framing the
	// server accepts.
	c := rpc.NewConn(mux.Channel(1), rpc.Policy{})
	t.Cleanup(func() { c.Close() })
	do := func(c *rpc.Conn, q *wire.Request) *wire.Response {
		t.Helper()
		resp, err := c.Call(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	k := symbol.K(3, 1)
	if r := do(c, &wire.Request{Op: wire.OpPut, Key: k, Payload: []byte("tcp")}); r.Status != wire.StatusOK {
		t.Fatalf("put: %+v", r)
	}
	if r := do(c, &wire.Request{Op: wire.OpGet, Key: k}); r.Status != wire.StatusOK || string(r.Payload) != "tcp" {
		t.Fatalf("get: %+v", r)
	}

	// A malformed request gets an error response, not a dropped channel.
	raw := mux.Channel(2)
	if err := raw.Send(wire.EncodeBatch(wire.BatchRequest, []wire.BatchEntry{{ID: 1, Msg: []byte{0xFF, 0xFF}}})); err != nil {
		t.Fatal(err)
	}
	buf, err := raw.Recv()
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

	// Concurrent channels against one server.
	var wg sync.WaitGroup
	for i := 3; i < 9; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := rpc.NewConn(mux.Channel(uint64(i)), rpc.Policy{})
			defer c.Close()
			key := symbol.K(symbol.Symbol(i))
			for j := 0; j < 20; j++ {
				if _, err := c.Call(&wire.Request{Op: wire.OpPut, Key: key, Payload: []byte{byte(j)}}, nil); err != nil {
					t.Error(err)
					return
				}
				if _, err := c.Call(&wire.Request{Op: wire.OpGet, Key: key}, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()

	if s.Store().MemoCount() != 0 {
		t.Fatalf("memos left: %d", s.Store().MemoCount())
	}
	if got := s.String(); got == "" {
		t.Fatal("empty String()")
	}
}
