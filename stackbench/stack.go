package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adf"
	"repro/internal/core"
	"repro/internal/folder"
	"repro/internal/memoserver"
	"repro/internal/placement"
	"repro/internal/routing"
	"repro/internal/rpc"
	"repro/internal/symbol"
	"repro/internal/transferable"
	"repro/internal/transport"
)

const appName = "stackbench"

// hosts are the three equal-cost machines; folder server i lives on
// hosts[i].
var hosts = []string{"a", "b", "c"}

const adfText = `APP stackbench
HOSTS
a 1 alpha 1
b 1 alpha 1
c 1 alpha 1
FOLDERS
0 a
1 b
2 c
PROCESSES
0 caller a
1 caller b
PPC
a <-> b 1
b <-> c 1
a <-> c 1
`

// traceRingSize bounds each node's trace ring in traced runs: the newest
// traces are joined with the benchmark's own op records when the run ends.
const traceRingSize = 8192

// stackConfig selects how one stack is booted.
type stackConfig struct {
	// tcp runs the nodes over real TCP on 127.0.0.1; otherwise the
	// simulated transport at zero latency.
	tcp bool
	// traced samples every request into the nodes' trace rings and wraps
	// the network in transport.WithStats and the benchmark's send timer.
	traced bool
}

// stack is the real D-Memo stack of one run: a memo server per host with
// its folder servers, booted through the public constructors.
type stack struct {
	cfg   stackConfig
	file  *adf.File
	place *placement.Map
	reg   *symbol.Registry
	net   transport.Transport
	nodes map[string]*memoserver.Node

	// Set only on traced stacks.
	tstats *transport.Stats
	sends  *sendTimer

	mu      sync.Mutex
	clients []*memoserver.Client
}

func bootStack(cfg stackConfig) (*stack, error) {
	f, err := adf.Parse(adfText)
	if err != nil {
		return nil, err
	}
	g, err := f.Graph()
	if err != nil {
		return nil, err
	}
	place, err := placement.New(f, routing.Build(g), placement.Options{})
	if err != nil {
		return nil, err
	}
	var nw transport.Transport
	if cfg.tcp {
		nw = &loopbackTCP{tcp: transport.NewTCP(), addrs: make(map[string]string)}
	} else {
		model := transport.NewNetModel(0)
		for _, l := range f.Links {
			model.SetLink(l.From, l.To, l.Cost)
			model.SetLink(l.To, l.From, l.Cost)
		}
		nw = transport.NewSim(model)
	}
	s := &stack{cfg: cfg, file: f, place: place, reg: symbol.NewRegistry(), nodes: make(map[string]*memoserver.Node)}
	if cfg.traced {
		s.tstats = new(transport.Stats)
		s.sends = new(sendTimer)
		nw = &timedTransport{Transport: transport.WithStats(nw, s.tstats), timer: s.sends}
	}
	s.net = nw
	for _, h := range hosts {
		ncfg := memoserver.Config{}
		if cfg.traced {
			ncfg.TraceSample = 1
			ncfg.TraceRingSize = traceRingSize
		}
		n := memoserver.NewWithDialer(h, nw, ncfg)
		if err := n.Start(); err != nil {
			s.close()
			return nil, err
		}
		s.nodes[h] = n
		if err := n.RegisterApp(f); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// handle is one caller's connection: a core.Memo over its own client.
type handle struct {
	host   string
	memo   *core.Memo
	client *memoserver.Client
	// conn is the client's raw connection on traced stacks (nil
	// otherwise), for attributing send time to the caller's ops.
	conn *timedConn
}

// dial opens a caller's connection to the memo server on host.
func (s *stack) dial(host string) (*handle, error) {
	h := &handle{host: host}
	dial := func(_, addr string) (transport.Conn, error) {
		c, err := s.net.Dial(addr)
		if tc, ok := c.(*timedConn); ok {
			h.conn = tc
		}
		return c, err
	}
	client, err := memoserver.DialClientResilient(dial, host, appName, rpc.Policy{}, rpc.Resilience{})
	if err != nil {
		return nil, err
	}
	if s.cfg.traced {
		client.EnableSampling()
	}
	m, err := core.New(core.Config{
		App: appName, Host: host, Domain: transferable.Domain64,
		Registry: s.reg, Place: s.place, Client: client,
	})
	if err != nil {
		client.Close()
		return nil, err
	}
	h.memo, h.client = m, client
	s.mu.Lock()
	s.clients = append(s.clients, client)
	s.mu.Unlock()
	return h, nil
}

// folderServer returns folder server id on its host's node.
func (s *stack) folderServer(id int) *folder.Server {
	fs, _ := s.nodes[hosts[id]].LocalFolderServer(appName, id)
	return fs
}

// memoCounts reports each folder server's visible memo count.
func (s *stack) memoCounts() []int {
	out := make([]int, len(hosts))
	for i := range hosts {
		out[i] = s.folderServer(i).Store().MemoCount()
	}
	return out
}

// close stops every client and node.
func (s *stack) close() {
	s.mu.Lock()
	clients := s.clients
	s.clients = nil
	s.mu.Unlock()
	for _, c := range clients {
		c.Close()
	}
	for _, n := range s.nodes {
		n.Close()
	}
}

// loopbackTCP maps the nodes' logical "host/memo" addresses onto TCP
// listeners on 127.0.0.1 with kernel-chosen ports.
type loopbackTCP struct {
	tcp *transport.TCP

	mu    sync.Mutex
	addrs map[string]string
}

func (t *loopbackTCP) Name() string { return "tcp-loopback" }

func (t *loopbackTCP) Listen(addr string) (transport.Listener, error) {
	l, err := t.tcp.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	t.addrs[transport.HostOf(addr)] = l.Addr()
	t.mu.Unlock()
	return l, nil
}

func (t *loopbackTCP) Dial(addr string) (transport.Conn, error) {
	t.mu.Lock()
	real, ok := t.addrs[transport.HostOf(addr)]
	t.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("stackbench: no listener for %s", addr)
	}
	return t.tcp.Dial(real)
}

// sendTimer totals Send calls and their durations over every wrapped
// connection.
type sendTimer struct {
	n  atomic.Int64
	ns atomic.Int64
}

// timedTransport wraps every dialed and accepted connection in a timedConn.
type timedTransport struct {
	transport.Transport
	timer *sendTimer
}

func (t *timedTransport) Dial(addr string) (transport.Conn, error) {
	c, err := t.Transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &timedConn{Conn: c, timer: t.timer}, nil
}

func (t *timedTransport) Listen(addr string) (transport.Listener, error) {
	l, err := t.Transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &timedListener{Listener: l, timer: t.timer}, nil
}

type timedListener struct {
	transport.Listener
	timer *sendTimer
}

func (l *timedListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &timedConn{Conn: c, timer: l.timer}, nil
}

// timedConn times each Send into its transport's timer and into its own
// running total, which a caller with one request in flight reads around
// each op.
type timedConn struct {
	transport.Conn
	timer  *sendTimer
	sentNS atomic.Int64
}

func (c *timedConn) Send(msg []byte) error {
	t0 := time.Now()
	err := c.Conn.Send(msg)
	d := int64(time.Since(t0))
	c.timer.n.Add(1)
	c.timer.ns.Add(d)
	c.sentNS.Add(d)
	return err
}
