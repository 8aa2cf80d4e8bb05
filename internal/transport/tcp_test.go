package transport

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/pool"
)

// TestTCPIdleTimeout verifies a silent peer trips the read deadline instead
// of wedging Recv forever.
func TestTCPIdleTimeout(t *testing.T) {
	srv := NewTCPIdle(50 * time.Millisecond)
	l, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	cli, err := NewTCP().Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	sc := <-accepted
	defer sc.Close()

	// Traffic inside the window keeps the connection alive.
	for i := 0; i < 3; i++ {
		time.Sleep(20 * time.Millisecond)
		if err := cli.Send([]byte("tick")); err != nil {
			t.Fatal(err)
		}
		if _, err := sc.Recv(); err != nil {
			t.Fatal(err)
		}
	}

	// Silence beyond the window fails the read with ErrIdleTimeout.
	start := time.Now()
	_, err = sc.Recv()
	if !errors.Is(err, ErrIdleTimeout) {
		t.Fatalf("Recv on silent conn: %v, want ErrIdleTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("idle timeout took %v", elapsed)
	}
}

// TestTCPIdleTimeoutTearsDownMux verifies the idle error surfaces through
// Mux.Run — a dead peer can no longer wedge the mux read pump.
func TestTCPIdleTimeoutTearsDownMux(t *testing.T) {
	srv := NewTCPIdle(50 * time.Millisecond)
	l, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	cli, err := NewTCP().Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	sc := <-accepted

	mux := NewMux(sc, 4096)
	runErr := make(chan error, 1)
	go func() { runErr <- mux.Run() }()

	// The dialer goes silent; the server mux must tear down by itself.
	select {
	case err := <-runErr:
		if !errors.Is(err, ErrIdleTimeout) {
			t.Fatalf("Mux.Run returned %v, want ErrIdleTimeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("mux read pump wedged on a silent peer")
	}
	// Channels observe the teardown.
	ch := mux.Channel(1)
	select {
	case <-ch.Done():
	case <-time.After(time.Second):
		t.Fatal("channel not torn down after idle timeout")
	}
}

// TestTCPNoIdleTimeoutByDefault: the default transport must keep blocking
// reads unbounded (folder waits can be arbitrarily long).
func TestTCPNoIdleTimeoutByDefault(t *testing.T) {
	l, err := NewTCP().Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	cli, err := NewTCP().Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	sc := <-accepted
	defer sc.Close()

	got := make(chan error, 1)
	go func() {
		_, err := sc.Recv()
		got <- err
	}()
	select {
	case err := <-got:
		t.Fatalf("Recv returned early: %v", err)
	case <-time.After(150 * time.Millisecond):
	}
	// A late message still arrives.
	if err := cli.Send([]byte("late")); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("late message never received")
	}
}

// TestTCPSendFramesAllocFree: Send ships the length prefix and payload in
// one vectored write with reused scratch, so the send path allocates
// nothing, and frames of any size arrive intact on the other end.
func TestTCPSendFramesAllocFree(t *testing.T) {
	l, err := NewTCP().Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan Conn, 1)
	go func() {
		if c, err := l.Accept(); err == nil {
			accepted <- c
		}
	}()
	cli, err := NewTCP().Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	srv := <-accepted
	defer srv.Close()

	for _, n := range []int{0, 1, 1500, 200 << 10} {
		msg := bytes.Repeat([]byte{byte(n)}, n)
		if err := cli.Send(msg); err != nil {
			t.Fatal(err)
		}
		got, err := srv.Recv()
		if err != nil || !bytes.Equal(got, msg) {
			t.Fatalf("%d-byte frame: got %d bytes, err %v", n, len(got), err)
		}
	}

	received := make(chan struct{})
	go func() {
		defer close(received)
		for {
			buf, err := srv.Recv()
			if err != nil {
				return
			}
			pool.Put(buf)
		}
	}()
	msg := make([]byte, 256)
	allocs := testing.AllocsPerRun(500, func() {
		if err := cli.Send(msg); err != nil {
			t.Fatal(err)
		}
	})
	cli.Close()
	<-received
	if allocs > 0.1 {
		t.Fatalf("Send allocates %.2f/op, want 0", allocs)
	}
}
