package main

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// A stamp names one memo the benchmark put: which caller put it and that
// caller's sequence number. Every jobjar and relay payload carries its
// stamp in its first bytes and seed-derived filler after it, so a Get can
// tell exactly which memo it received and that no byte of it changed.
type stamp struct {
	caller uint16
	seq    uint64
}

const stampLen = 2 + 8

// fill writes the stamp and its seed-derived filler into buf (len(buf) >=
// stampLen).
func (s stamp) fill(buf []byte, seed uint64) {
	binary.LittleEndian.PutUint16(buf, s.caller)
	binary.LittleEndian.PutUint64(buf[2:], s.seq)
	fillBytes(buf[stampLen:], seed^uint64(s.caller)<<48^s.seq)
}

// parseStamp reads a payload's stamp and checks its filler.
func parseStamp(buf []byte, seed uint64) (stamp, error) {
	if len(buf) < stampLen {
		return stamp{}, fmt.Errorf("payload of %d bytes has no stamp", len(buf))
	}
	s := stamp{caller: binary.LittleEndian.Uint16(buf), seq: binary.LittleEndian.Uint64(buf[2:])}
	if !fillMatches(buf[stampLen:], seed^uint64(s.caller)<<48^s.seq) {
		return s, fmt.Errorf("payload of memo %d/%d corrupted", s.caller, s.seq)
	}
	return s, nil
}

// fillBytes fills buf with splitmix64 output seeded by x.
func fillBytes(buf []byte, x uint64) {
	for i := 0; i < len(buf); i += 8 {
		x += 0x9e3779b97f4a7c15
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], mix(x))
		copy(buf[i:], w[:])
	}
}

func fillMatches(buf []byte, x uint64) bool {
	var want [512]byte
	if len(buf) > len(want) {
		return false
	}
	fillBytes(want[:len(buf)], x)
	return string(want[:len(buf)]) == string(buf)
}

// mix is splitmix64's finalizer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ledger is the exactly-once oracle for the memos a run puts and takes. A
// stamp is outstanding from just before its Put is issued until a Get
// returns it. A Get that returns a stamp never issued is a phantom; one
// that returns a stamp no longer outstanding is a double take; a stamp
// still outstanding after the final drain is a lost memo. Only outstanding
// stamps are held, so the ledger stays a few entries long however long the
// run.
type ledger struct {
	mu          sync.Mutex
	issued      map[uint16]uint64 // caller -> highest seq issued
	outstanding map[stamp]struct{}
	uncertain   map[stamp]struct{} // puts that failed: may or may not have landed
	errs        []string
}

func newLedger() *ledger {
	return &ledger{
		issued:      make(map[uint16]uint64),
		outstanding: make(map[stamp]struct{}),
		uncertain:   make(map[stamp]struct{}),
	}
}

// maxLedgerErrs bounds how many mismatches a run keeps for its report.
const maxLedgerErrs = 20

func (l *ledger) failf(format string, args ...any) {
	if len(l.errs) < maxLedgerErrs {
		l.errs = append(l.errs, fmt.Sprintf(format, args...))
	}
}

// put records a stamp about to be put. Sequence numbers per caller must
// increase.
func (l *ledger) put(s stamp) {
	l.mu.Lock()
	if s.seq <= l.issued[s.caller] {
		l.failf("caller %d reissued seq %d", s.caller, s.seq)
	}
	l.issued[s.caller] = s.seq
	l.outstanding[s] = struct{}{}
	l.mu.Unlock()
}

// abandon records a Put that failed: the memo may or may not have landed,
// so it is no longer required to come back, but may.
func (l *ledger) abandon(s stamp) {
	l.mu.Lock()
	delete(l.outstanding, s)
	l.uncertain[s] = struct{}{}
	l.mu.Unlock()
}

// take records a stamp a Get returned, reporting whether it was valid.
func (l *ledger) take(s stamp) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.outstanding[s]; ok {
		delete(l.outstanding, s)
		return true
	}
	if _, ok := l.uncertain[s]; ok {
		delete(l.uncertain, s)
		return true
	}
	if s.seq == 0 || s.seq > l.issued[s.caller] {
		l.failf("phantom memo %d/%d was never put", s.caller, s.seq)
	} else {
		l.failf("double take of memo %d/%d", s.caller, s.seq)
	}
	return false
}

// mismatch records an output check that failed outside the stamp rules.
func (l *ledger) mismatch(format string, args ...any) {
	l.mu.Lock()
	l.failf(format, args...)
	l.mu.Unlock()
}

// close declares the run drained: every stamp still outstanding is lost. It
// returns every mismatch the run recorded.
func (l *ledger) close() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	for s := range l.outstanding {
		l.failf("lost memo %d/%d", s.caller, s.seq)
	}
	return append([]string(nil), l.errs...)
}
