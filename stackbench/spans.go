package main

import (
	"sort"

	"repro/internal/wire"
)

// A node's trace ring holds, for every request that entered the cluster
// there, the spans each layer recorded: "memo" (dispatch; Wait is the
// dispatch-queue wait before Start), "link" (a forward to a peer), "rpc"
// (the peer-link call; Wait is batcher linger inside Dur), "folder" (the
// folder-server op; Wait is shard-lock wait inside Dur), and two aggregate
// waits anchored at the folder op's start: "folder"/"park" (time parked
// for a memo) and "durable"/"commit" (group-commit wait). All nodes run in
// this one process, so every timestamp shares one clock and the tree can be
// rebuilt by interval containment.

// tspan is one span placed in its request's tree.
type tspan struct {
	layer, op string
	// outer is the interval the span occupies in its parent: for memo
	// spans it starts at the enqueue, before the body.
	outerStart, start, end int64
	waitBefore             int64 // memo queue wait (outside Dur)
	waitInside             int64 // rpc linger, folder lock wait (inside Dur)
	aggregate              bool  // park and commit: leaves summed, not unioned
	parent                 int   // index into the tree, -1 for a root
	kids                   []int
}

func (s *tspan) dur() int64 { return s.end - s.start }

// spanTree rebuilds the containment tree of one request's spans.
type spanTree []tspan

func buildTree(spans []wire.Span) spanTree {
	t := make(spanTree, 0, len(spans))
	for _, sp := range spans {
		ts := tspan{layer: sp.Layer, op: sp.Op, start: sp.Start, end: sp.Start + sp.Dur, parent: -1}
		ts.outerStart = ts.start
		switch {
		case sp.Layer == "memo":
			ts.waitBefore = sp.Wait
			ts.outerStart = sp.Start - sp.Wait
		case sp.Layer == "folder" && sp.Op == "park", sp.Layer == "durable":
			ts.aggregate = true
		default:
			ts.waitInside = sp.Wait
		}
		t = append(t, ts)
	}
	// Parents start no later and end no earlier than their children; among
	// spans starting together the longer one encloses. Aggregates sort
	// after the interval span they share a start with, and never become
	// parents.
	idx := make([]int, len(t))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		x, y := &t[idx[a]], &t[idx[b]]
		if x.outerStart != y.outerStart {
			return x.outerStart < y.outerStart
		}
		if x.aggregate != y.aggregate {
			return !x.aggregate
		}
		return x.end > y.end
	})
	var open []int
	for _, i := range idx {
		s := &t[i]
		for !s.aggregate && len(open) > 0 && t[open[len(open)-1]].end < s.end {
			open = open[:len(open)-1]
		}
		if s.aggregate {
			// Attach to the innermost open folder span: the one it shares
			// a start with.
			for j := len(open) - 1; j >= 0; j-- {
				if t[open[j]].layer == "folder" {
					s.parent = open[j]
					break
				}
			}
		} else if len(open) > 0 {
			s.parent = open[len(open)-1]
		}
		if s.parent >= 0 {
			t[s.parent].kids = append(t[s.parent].kids, i)
		}
		if !s.aggregate {
			open = append(open, i)
		}
	}
	return t
}

// self is a span's own time: its duration less the waits it owns and the
// time its children cover.
func (t spanTree) self(i int) int64 {
	s := &t[i]
	covered := int64(0)
	var ivs [][2]int64
	for _, k := range s.kids {
		c := &t[k]
		if c.aggregate {
			covered += c.dur()
			continue
		}
		lo, hi := max(c.outerStart, s.start), min(c.end, s.end)
		if hi > lo {
			ivs = append(ivs, [2]int64{lo, hi})
		}
	}
	covered += unionLen(ivs)
	return s.dur() - s.waitInside - covered
}

// unionLen returns the total length covered by the intervals.
func unionLen(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total, curLo, curHi int64
	started := false
	for _, iv := range ivs {
		if !started || iv[0] > curHi {
			if started {
				total += curHi - curLo
			}
			curLo, curHi, started = iv[0], iv[1], true
			continue
		}
		if iv[1] > curHi {
			curHi = iv[1]
		}
	}
	if started {
		total += curHi - curLo
	}
	return total
}

// root returns the entry memo span (the outermost), or -1.
func (t spanTree) root() int {
	best := -1
	for i := range t {
		if t[i].parent == -1 && t[i].layer == "memo" &&
			(best == -1 || t[i].end-t[i].outerStart > t[best].end-t[best].outerStart) {
			best = i
		}
	}
	return best
}

// layerTimes accumulates, over many requests, each layer's self time and
// waits in nanoseconds with the number of spans behind each total.
type layerTimes struct {
	memoSelf, memoWait, linkSelf, linkNet, rpcSelf, rpcLinger sum
	folderSelf, folderLock, park, commit, residual            sum
	// opNS is the callers' wall time over the ops behind residual.
	opNS int64
}

type sum struct {
	ns int64
	n  int64
}

func (s *sum) add(v int64) { s.ns += v; s.n++ }

func (s sum) meanUS() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.ns) / float64(s.n) / 1e3
}

// addTree folds one request's tree into the totals and returns the entry
// node's share of the request: the root memo span including its queue
// wait, which every server-side self time and wait adds up to.
func (lt *layerTimes) addTree(t spanTree) int64 {
	for i := range t {
		s := &t[i]
		switch {
		case s.layer == "memo":
			lt.memoSelf.add(t.self(i))
			lt.memoWait.add(s.waitBefore)
		case s.layer == "link":
			lt.linkSelf.add(t.self(i))
			// The link less the remote memo span under it: the peer
			// round trip without the remote node's work.
			remote := int64(0)
			for _, k := range s.kids {
				for _, g := range t[k].kids {
					if t[g].layer == "memo" {
						remote += t[g].end - t[g].outerStart
					}
				}
			}
			lt.linkNet.add(s.dur() - remote)
		case s.layer == "rpc":
			lt.rpcSelf.add(t.self(i))
			lt.rpcLinger.add(s.waitInside)
		case s.layer == "folder" && !s.aggregate:
			lt.folderSelf.add(t.self(i))
			lt.folderLock.add(s.waitInside)
		case s.op == "park":
			lt.park.add(s.dur())
		case s.layer == "durable":
			lt.commit.add(s.dur())
		}
	}
	r := t.root()
	if r < 0 {
		return 0
	}
	return t[r].end - t[r].outerStart
}
