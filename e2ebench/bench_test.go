package main

import (
	"testing"
	"time"

	"repro/internal/stats"
)

// counts is the part of a rep that must not depend on the schedule.
type counts struct {
	sim   int64
	delta stats.Snapshot
}

func repCounts(h *rep) counts {
	return counts{sim: int64(h.simEnd - h.simBefore), delta: h.after.Sub(h.before)}
}

func mustRep(t *testing.T, w workload, traced bool) *rep {
	t.Helper()
	h, err := runRep(w, traced)
	if err != nil {
		t.Fatal(err)
	}
	if h.failed.Load() {
		t.Fatalf("rep failed: %v", h.errs)
	}
	return h
}

// On the mem transport the simulated time and every counter of the
// steady phase repeat exactly for a fixed seed, traced or not.
func TestRepeatableSimTimeAndCounts(t *testing.T) {
	for _, name := range []string{"sor-resident", "outofcore-zipf"} {
		t.Run(name, func(t *testing.T) {
			w := newWorkload(name, 42)
			first := repCounts(mustRep(t, w, false))
			if first.sim == 0 {
				t.Fatal("steady phase advanced no simulated time")
			}
			for i, traced := range []bool{false, true} {
				h := mustRep(t, w, traced)
				if traced {
					checkTrace(h)
					if h.failed.Load() {
						t.Fatalf("traced rep failed: %v", h.errs)
					}
				}
				if got := repCounts(h); got != first {
					t.Errorf("rep %d (traced=%v): sim %d counters %+v\nfirst rep: sim %d counters %+v",
						i+1, traced, got.sim, got.delta, first.sim, first.delta)
				}
			}
		})
	}
}

// Over UDP the lock manager grants in arrival order, so message counts
// depend on the schedule. Only the output checks are asserted; the
// spread of the counts is logged.
func TestLocksUDPCountsSpread(t *testing.T) {
	w := newWorkload("locks-udp", 42)
	var lo, hi int64
	for i := 0; i < 3; i++ {
		h := mustRep(t, w, false)
		msgs := h.after.Sub(h.before).MsgsSent
		if i == 0 || msgs < lo {
			lo = msgs
		}
		if msgs > hi {
			hi = msgs
		}
	}
	t.Logf("transport.msgs over 3 reps: %d..%d (%.1f%% spread)", lo, hi, 100*float64(hi-lo)/float64(lo))
}

// Every traced rep's layer self times plus apps.self_s add up to each
// rank's steady-phase window exactly.
func TestTraceReconciles(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w := newWorkload(name, 7)
			h := mustRep(t, w, true)
			checkTrace(h)
			if h.failed.Load() {
				t.Fatal(h.errs)
			}
			for r, b := range h.bd {
				sum := b.apps
				for _, v := range b.self {
					sum += v
				}
				if spans := len(h.tr[r].spans); sum != b.window || spans == 0 {
					t.Errorf("rank %d: %d spans, self+apps %d ns, window %d ns", r, spans, sum, b.window)
				}
			}
		})
	}
}

func TestAnalyze(t *testing.T) {
	tr := newTracer(time.Time{})
	tr.spans = []span{
		{start: 10, end: 50, parent: -1, kind: kViewOpen},
		{start: 20, end: 30, parent: 0, kind: kDiskWrite},
		{start: 30, end: 45, parent: 0, kind: kDiskRead},
		{start: 60, end: 90, parent: -1, kind: kBarrier},
	}
	b, err := analyze(tr, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if b.self[lView] != 15 || b.self[lDisk] != 25 || b.self[lBarrier] != 30 || b.apps != 30 {
		t.Errorf("self %v apps %d, want view 15 disk 25 barrier 30 apps 30", b.self, b.apps)
	}
	// Overlapping top-level spans mean a span was recorded from two
	// places at once: the breakdown cannot add up.
	tr.spans = append(tr.spans, span{start: 80, end: 95, parent: -1, kind: kDiskRead})
	if _, err := analyze(tr, 0, 100); err == nil {
		t.Error("overlapping top-level spans reconciled")
	}
	tr.spans = []span{{start: 10, end: 120, parent: -1, kind: kBarrier}}
	if _, err := analyze(tr, 0, 100); err == nil {
		t.Error("span outside the window accepted")
	}
}
