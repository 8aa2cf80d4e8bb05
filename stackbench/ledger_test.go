package main

import (
	"strings"
	"testing"
)

func wantOneErr(t *testing.T, errs []string, substr string) {
	t.Helper()
	if len(errs) != 1 || !strings.Contains(errs[0], substr) {
		t.Fatalf("errors = %q, want one containing %q", errs, substr)
	}
}

func TestLedgerCleanRun(t *testing.T) {
	l := newLedger()
	for seq := uint64(1); seq <= 3; seq++ {
		l.put(stamp{1, seq})
		l.put(stamp{2, seq})
	}
	// Takes may come back in any order and by any caller.
	for _, s := range []stamp{{2, 1}, {1, 1}, {1, 3}, {2, 2}, {1, 2}, {2, 3}} {
		if !l.take(s) {
			t.Fatalf("take %v refused", s)
		}
	}
	if errs := l.close(); len(errs) != 0 {
		t.Fatalf("clean run reported %q", errs)
	}
}

func TestLedgerCatchesDoubleTake(t *testing.T) {
	l := newLedger()
	l.put(stamp{1, 1})
	l.take(stamp{1, 1})
	if l.take(stamp{1, 1}) {
		t.Fatal("second take of one memo accepted")
	}
	wantOneErr(t, l.close(), "double take")
}

func TestLedgerCatchesPhantom(t *testing.T) {
	l := newLedger()
	l.put(stamp{1, 1})
	l.take(stamp{1, 1})
	if l.take(stamp{1, 2}) {
		t.Fatal("memo never put accepted")
	}
	wantOneErr(t, l.close(), "phantom")
}

func TestLedgerCatchesLostMemo(t *testing.T) {
	l := newLedger()
	l.put(stamp{1, 1})
	l.put(stamp{1, 2})
	l.take(stamp{1, 2})
	wantOneErr(t, l.close(), "lost memo 1/1")
}

// A put that failed may or may not have landed: the drain may take it, but
// need not.
func TestLedgerFailedPutIsUncertain(t *testing.T) {
	l := newLedger()
	l.put(stamp{1, 1})
	l.abandon(stamp{1, 1})
	l.put(stamp{1, 2})
	l.abandon(stamp{1, 2})
	if !l.take(stamp{1, 2}) {
		t.Fatal("a failed put that landed was refused")
	}
	if errs := l.close(); len(errs) != 0 {
		t.Fatalf("uncertain puts reported %q", errs)
	}
}

func TestStampRoundTripAndCorruption(t *testing.T) {
	buf := make([]byte, payloadLen)
	stamp{7, 42}.fill(buf, 99)
	s, err := parseStamp(buf, 99)
	if err != nil || s != (stamp{7, 42}) {
		t.Fatalf("parseStamp = %v, %v", s, err)
	}
	if _, err := parseStamp(buf, 98); err == nil {
		t.Fatal("payload checked against the wrong seed passed")
	}
	buf[payloadLen-1] ^= 1
	if _, err := parseStamp(buf, 99); err == nil {
		t.Fatal("corrupted payload passed")
	}
}
