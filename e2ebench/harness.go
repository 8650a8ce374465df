package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	lots "repro"
	"repro/internal/disk"
	"repro/internal/platform"
	"repro/internal/stats"
)

// ranks is the cluster size of every workload: one client per rank,
// each issuing its next op only after the previous one returned.
const ranks = 2

// workload is one set of generated inputs plus the SPMD code that
// drives the public lots API with them.
type workload interface {
	// config returns the cluster configuration for one rep.
	config(h *rep) lots.Config
	// rank runs on every node. It must call h.setupDone after the
	// first barrier that follows allocation and the initial fill,
	// h.steadyStart before its first op, h.op before each op and
	// h.steadyEnd on exit from its last steady-phase barrier. Output
	// mismatches are reported through h.fail.
	rank(n *lots.Node, h *rep)
	// ops is the number of ops one rep performs, all ranks together.
	ops() int
}

// rep is one fresh cluster: set-up, steady phase, verification.
type rep struct {
	tr [ranks]*tracer
	bd [ranks]breakdown // traced reps: each rank's steady phase by layer
	// Traced reps: span duration quantiles in µs, both ranks pooled.
	spanP50, spanP99 [nKinds]float64
	gate             *gate

	c                 *lots.Cluster // nil once the rep is over
	mem               bool          // in-memory transport: simulated time exists
	t0                time.Time     // just before NewCluster
	setupEnd          time.Time     // rank 0 leaves the first barrier
	start             time.Time     // steady phase begins on every rank
	ends              [ranks]time.Time
	lat               [ranks][]time.Duration
	before, after     stats.Snapshot
	simBefore, simEnd time.Duration
	memBefore         runtime.MemStats
	memAfter          runtime.MemStats
	heapBase          uint64  // live heap before NewCluster
	liveHeap          uint64  // live heap after the steady phase, less heapBase
	opP50, opP99      float64 // op latency quantiles in ms, both ranks pooled
	samples           int     // op latencies behind opP50 and opP99

	mu     sync.Mutex
	errs   []string
	failed atomic.Bool
}

func (h *rep) fail(format string, args ...any) {
	h.failed.Store(true)
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.errs) < 8 {
		h.errs = append(h.errs, fmt.Sprintf(format, args...))
	}
}

// store builds node i's backing store: the simulated disk the cluster
// uses by default, wrapped in spans when the rep is traced. disk.Accounted
// goes on top of it either way.
func (h *rep) store(prof platform.Profile, i int) disk.Store {
	s := disk.NewSimStore(prof.DiskFreeBytes)
	if h.tr[i] == nil {
		return s
	}
	return spanStore{Store: s, tr: h.tr[i]}
}

func (h *rep) setupDone(n *lots.Node) {
	if n.ID() == 0 {
		h.setupEnd = time.Now()
	}
}

// steadyStart waits for every rank, then snapshots counters, clocks and
// the allocator so the steady phase is measured from one instant.
func (h *rep) steadyStart(n *lots.Node) {
	h.gate.wait(func() {
		h.before = h.c.Total()
		h.simBefore = h.c.SimTime()
		runtime.ReadMemStats(&h.memBefore)
		h.start = time.Now()
	})
	h.tr[n.ID()].setOn(true)
}

func (h *rep) op(n *lots.Node, i int) { h.tr[n.ID()].setOp(i) }

// steadyEnd marks this rank's exit from the last steady-phase barrier;
// once every rank is there, it snapshots the counters and measures the
// live heap after a full collection.
func (h *rep) steadyEnd(n *lots.Node) {
	h.ends[n.ID()] = time.Now()
	h.tr[n.ID()].setOn(false)
	h.gate.wait(func() {
		runtime.ReadMemStats(&h.memAfter)
		h.after = h.c.Total()
		h.simEnd = h.c.SimTime()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		h.liveHeap = ms.HeapAlloc - h.heapBase
	})
}

// runRep builds a fresh cluster and runs one complete rep of w.
func runRep(w workload, traced bool) (*rep, error) {
	h := &rep{gate: newGate(ranks)}
	for i := range h.lat {
		h.lat[i] = make([]time.Duration, 0, w.ops()/ranks+1)
	}
	// Every rep starts from the same collected, returned-to-the-OS
	// heap, so set-up pays the same page faults each time.
	debug.FreeOSMemory()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h.heapBase = ms.HeapAlloc
	h.t0 = time.Now()
	if traced {
		for i := range h.tr {
			h.tr[i] = newTracer(h.t0)
		}
	}
	cfg := w.config(h)
	h.mem = cfg.Transport == lots.TransportMem
	c, err := lots.NewCluster(cfg)
	if err != nil {
		return nil, fmt.Errorf("NewCluster: %w", err)
	}
	h.c = c
	for i, t := range h.tr {
		if t != nil && h.mem {
			t.sim = c.Node(i).SimNow
		}
	}
	err = c.Run(func(n *lots.Node) { w.rank(n, h) })
	c.Close()
	// Later reps must not keep this cluster's memory live.
	h.c = nil
	for _, t := range h.tr {
		if t != nil {
			t.sim = nil
		}
	}
	if err != nil {
		h.fail("%v", err)
	}
	var lat []time.Duration
	for _, l := range h.lat {
		lat = append(lat, l...)
	}
	h.samples = len(lat)
	h.opP50 = durQuantile(lat, 0.50, time.Millisecond)
	h.opP99 = durQuantile(lat, 0.99, time.Millisecond)
	h.lat = [ranks][]time.Duration{}
	return h, nil
}
