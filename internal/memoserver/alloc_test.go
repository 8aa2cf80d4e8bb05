package memoserver

import (
	"testing"

	"repro/internal/rpc"
	"repro/internal/symbol"
	"repro/internal/wire"
)

// TestFullStackAllocBudget gates the allocations of one put+get_skip pair
// through the whole stack — client encode → rpc batcher → sim transport →
// memo server dispatch → folder store → response → client decode — on a
// folder local to the entry node and on one forwarded a hop over the peer
// link. It sits beside the rpc-layer gate (internal/rpc/alloc_test.go):
// that one measures the echo path, this one what a memo operation costs.
// testing.AllocsPerRun counts mallocs process-wide, so both server sides
// are inside the budget.
func TestFullStackAllocBudget(t *testing.T) {
	if raceBuilt {
		t.Skip("the race detector makes sync.Pool drop items at random, so allocation counts vary")
	}
	for _, tc := range []struct {
		name     string
		folderID int // folder 0 lives on a; folder 1 forwards a→b
		budget   float64
	}{
		// Measured 16 and 25 allocs per pair; the budgets leave a little
		// room for scheduler noise.
		{"local", 0, 19},
		{"remote", 1, 29},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tn := bootNet(t, twoHostADF, Config{})
			// Heartbeats off: the probe ticker would add background
			// allocations unrelated to the per-op budget.
			c, err := DialClientResilient(tn.sim.DialFrom, "a", tn.file.App, rpc.Policy{}, rpc.Resilience{})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			k := symbol.K(9)
			payload := []byte("gate")
			pair := func() {
				if resp, err := c.Do(req(wire.OpPut, tc.folderID, k, payload), nil); err != nil || resp.Status != wire.StatusOK {
					t.Fatalf("put: %+v %v", resp, err)
				}
				if resp, err := c.Do(req(wire.OpGetSkip, tc.folderID, k, nil), nil); err != nil || resp.Status != wire.StatusOK {
					t.Fatalf("get_skip: %+v %v", resp, err)
				}
			}
			// Warm the pools, the cached threads and the peer link.
			for i := 0; i < 64; i++ {
				pair()
			}
			allocs := testing.AllocsPerRun(300, pair)
			t.Logf("%s put+get_skip: %.1f allocs/pair", tc.name, allocs)
			if allocs > tc.budget {
				t.Fatalf("%s put+get_skip allocates %.1f/pair, budget %.0f", tc.name, allocs, tc.budget)
			}
		})
	}
}

// raceBuilt is set by race_test.go in -race builds.
var raceBuilt bool
