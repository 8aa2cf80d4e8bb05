package main

import (
	"math/rand/v2"
	"testing"

	"repro/internal/wire"
)

// forwardedTree is a put entering at a and served by a durable folder
// server on b, as a's trace ring records it.
func forwardedTree() []wire.Span {
	return []wire.Span{
		{Node: "memo@a", Layer: "memo", Op: "put", Hop: 0, Start: 100, Dur: 900, Wait: 20},
		{Node: "memo@a", Layer: "link", Op: "b", Hop: 0, Start: 150, Dur: 800},
		{Node: "memo@a", Layer: "rpc", Op: "send", Hop: 1, Start: 160, Dur: 780, Wait: 30},
		{Node: "memo@b", Layer: "memo", Op: "put", Hop: 1, Start: 250, Dur: 600, Wait: 40},
		{Node: "folder-1@b", Layer: "folder", Op: "put", Hop: 1, Start: 300, Dur: 500, Wait: 25},
		{Node: "folder-1@b", Layer: "folder", Op: "park", Hop: 1, Start: 300, Dur: 100},
		{Node: "folder-1@b", Layer: "durable", Op: "commit", Hop: 1, Start: 300, Dur: 200},
	}
}

func TestSelfTimesOnSyntheticTree(t *testing.T) {
	spans := forwardedTree()
	// Ring order is not tree order.
	rand.New(rand.NewPCG(1, 2)).Shuffle(len(spans), func(i, j int) { spans[i], spans[j] = spans[j], spans[i] })
	tree := buildTree(spans)
	want := map[string]int64{
		"memo/0":   900 - 800,              // less the link
		"link/0":   800 - 780,              // less the rpc call
		"rpc/1":    780 - 30 - (850 - 210), // less linger and the remote memo with its queue wait
		"memo/1":   600 - 500,              // less the folder op
		"folder/1": 500 - 25 - 100 - 200,   // less lock wait, park and commit
	}
	for i, s := range tree {
		if s.aggregate {
			if s.parent < 0 || tree[s.parent].layer != "folder" {
				t.Errorf("%s/%s not attached to its folder span", s.layer, s.op)
			}
			continue
		}
		key := s.layer + "/" + string('0'+byte(spanHop(spans, s)))
		if got := tree.self(i); got != want[key] {
			t.Errorf("self(%s) = %d, want %d", key, got, want[key])
		}
	}

	var lt layerTimes
	server := lt.addTree(tree)
	// Every self time and wait adds up to the root memo span with its wait.
	if server != 1000-80 {
		t.Fatalf("server total = %d, want %d", server, 1000-80)
	}
	parts := lt.memoSelf.ns + lt.memoWait.ns + lt.linkSelf.ns + lt.rpcSelf.ns + lt.rpcLinger.ns +
		lt.folderSelf.ns + lt.folderLock.ns + lt.park.ns + lt.commit.ns
	if parts != server {
		t.Errorf("layer parts sum to %d, want the server total %d", parts, server)
	}
	if lt.linkNet.ns != 800-640 {
		t.Errorf("link less remote memo = %d, want %d", lt.linkNet.ns, 800-640)
	}
	if lt.memoWait.ns != 60 || lt.memoWait.n != 2 {
		t.Errorf("queue wait = %d over %d spans, want 60 over 2", lt.memoWait.ns, lt.memoWait.n)
	}
}

// spanHop finds the hop of the span tree entry s came from.
func spanHop(spans []wire.Span, s tspan) int {
	for _, sp := range spans {
		if sp.Layer == s.layer && sp.Op == s.op && sp.Start == s.start {
			return sp.Hop
		}
	}
	return -1
}

func TestResidualSubtraction(t *testing.T) {
	c := &caller{ring: &opRing{}}
	c.ring.add(opRec{trace: 7, kind: opPut, dur: 1500, sendNS: 30})
	c.ring.add(opRec{trace: 8, kind: opGet, dur: 400, sendNS: 10}) // no spans: not joined
	byTrace := map[uint64][]wire.Span{7: forwardedTree()}
	lt, joined, _ := foldOps([]*caller{c}, byTrace, 0.05)
	if joined != 1 {
		t.Fatalf("joined %d ops, want 1", joined)
	}
	// 1500 ns of op less 50 ns of core, 30 ns in Send and 920 ns of server.
	if lt.residual.ns != 1500-50-30-920 || lt.opNS != 1500 {
		t.Errorf("residual %d of %d, want %d of 1500", lt.residual.ns, lt.opNS, 1500-50-30-920)
	}
}

func TestLocalTree(t *testing.T) {
	tree := buildTree([]wire.Span{
		{Layer: "folder", Op: "get", Start: 40, Dur: 50, Wait: 5},
		{Layer: "memo", Op: "get", Start: 20, Dur: 100, Wait: 10},
	})
	var lt layerTimes
	if got := lt.addTree(tree); got != 110 {
		t.Fatalf("server total = %d, want 110", got)
	}
	if lt.memoSelf.ns != 50 || lt.folderSelf.ns != 45 || lt.folderLock.ns != 5 {
		t.Errorf("memo self %d, folder self %d, lock %d; want 50, 45, 5",
			lt.memoSelf.ns, lt.folderSelf.ns, lt.folderLock.ns)
	}
}
