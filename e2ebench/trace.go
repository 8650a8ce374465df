package main

// Spans recorded from the benchmark's own code, around its calls into
// each layer's public functions. The program's internal tracing
// (Config.Trace) stays off: these spans see a layer only from outside.

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/disk"
)

// kind names what a span wraps.
type kind uint8

const (
	kViewOpen    kind = iota // Ptr.View/ViewRW, Matrix.RowView/RowViewRW
	kViewRelease             // View.Release
	kBarrier                 // Node.Barrier
	kAcquire                 // Node.Acquire
	kRelease                 // Node.Release
	kDiskRead                // disk.Store.Read under Accounted
	kDiskWrite               // disk.Store.Write under Accounted
	nKinds
)

var kindName = [nKinds]string{
	"view.open", "view.release", "barrier",
	"lock.acquire", "lock.release", "disk.read", "disk.write",
}

// layer groups span kinds into the modules the per-layer metrics name.
type layer uint8

const (
	lView layer = iota
	lBarrier
	lLock
	lDisk
	nLayers
)

var layerName = [nLayers]string{"view", "barrier", "lock", "disk"}

var kindLayer = [nKinds]layer{lView, lView, lBarrier, lLock, lLock, lDisk, lDisk}

// leaf kinds never enclose another span, and may be recorded from a
// goroutine other than the rank's application goroutine.
func (k kind) leaf() bool { return k == kDiskRead || k == kDiskWrite }

type span struct {
	start, end int64 // wall ns since the rep began
	sim        int64 // simulated ns elapsed inside the span (mem transport)
	op         int32 // op id on this rank
	parent     int32 // enclosing span on this rank, -1 at top level
	kind       kind
}

// tracer keeps one rank's spans in memory. A nil *tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	epoch time.Time
	sim   func() time.Duration // nil on socket transports

	mu    sync.Mutex
	on    bool
	op    int32
	open  int32
	spans []span
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch, open: -1} }

func (t *tracer) simNow() int64 {
	if t.sim == nil {
		return 0
	}
	return int64(t.sim())
}

func (t *tracer) begin(k kind) int32 {
	if t == nil {
		return -1
	}
	sim := t.simNow()
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return -1
	}
	idx := int32(len(t.spans))
	t.spans = append(t.spans, span{
		start: int64(time.Since(t.epoch)), sim: sim,
		op: t.op, parent: t.open, kind: k,
	})
	if !k.leaf() {
		t.open = idx
	}
	return idx
}

func (t *tracer) end(idx int32) {
	if idx < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	sim := t.simNow()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[idx]
	s.end = now
	s.sim = sim - s.sim
	if !s.kind.leaf() {
		t.open = s.parent
	}
}

func (t *tracer) setOn(on bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

func (t *tracer) setOp(op int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.op = int32(op)
	t.mu.Unlock()
}

// breakdown is one rank's traced steady phase split by layer.
type breakdown struct {
	window int64             // ns from steady start to this rank's exit of the final barrier
	self   [nLayers]int64    // span time minus the time its child spans cover
	apps   int64             // window time covered by no span: application compute
	dur    [nKinds][]float64 // span durations in µs
	busy   [nKinds]int64
	sim    [nKinds]int64
}

// analyze splits the window [from, to] of one rank. It returns an error
// when the self times plus the uncovered time do not add up to the
// window to the nanosecond, which happens only if spans that should be
// sequential overlap or a span was left open.
func analyze(t *tracer, from, to int64) (breakdown, error) {
	b := breakdown{window: to - from}
	covered := make([]int64, len(t.spans))
	var tops [][2]int64
	for _, s := range t.spans {
		if s.end < s.start || s.start < from || s.end > to {
			return b, fmt.Errorf("span %s [%d,%d] outside window [%d,%d]", kindName[s.kind], s.start, s.end, from, to)
		}
		d := s.end - s.start
		b.dur[s.kind] = append(b.dur[s.kind], float64(d)/1e3)
		b.busy[s.kind] += d
		b.sim[s.kind] += s.sim
		if s.parent < 0 {
			tops = append(tops, [2]int64{s.start, s.end})
			continue
		}
		p := t.spans[s.parent]
		covered[s.parent] += max(0, min(s.end, p.end)-max(s.start, p.start))
	}
	for i, s := range t.spans {
		self := s.end - s.start - covered[i]
		if s.parent >= 0 {
			p := t.spans[s.parent]
			self = max(0, min(s.end, p.end)-max(s.start, p.start))
		}
		if self < 0 {
			return b, fmt.Errorf("span %s covers %d ns more than its length", kindName[s.kind], -self)
		}
		b.self[kindLayer[s.kind]] += self
	}
	// Uncovered time is measured independently of the self times: the
	// gaps between the merged top-level spans.
	sort.Slice(tops, func(i, j int) bool { return tops[i][0] < tops[j][0] })
	at := from
	for _, iv := range tops {
		if iv[0] > at {
			b.apps += iv[0] - at
		}
		at = max(at, iv[1])
	}
	b.apps += to - at
	sum := b.apps
	for _, v := range b.self {
		sum += v
	}
	if sum != b.window {
		return b, fmt.Errorf("layer self times + apps.self = %d ns, window = %d ns", sum, b.window)
	}
	return b, nil
}

// writeSpans dumps every rank's spans as tab-separated lines under a
// header line and a column line; ids are per-rank span indexes, so a
// span's parent is the span of the same rank with that id.
func writeSpans(path string, header string, trs []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# %s\nrank\tid\tname\top\tparent\tstart_ns\tend_ns\tsim_ns\n", header)
	for rank, t := range trs {
		for i, s := range t.spans {
			fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\t%d\t%d\n",
				rank, i, kindName[s.kind], s.op, s.parent, s.start, s.end, s.sim)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanStore wraps a node's backing store; the cluster puts it under
// disk.Accounted, so these spans time the store alone.
type spanStore struct {
	disk.Store
	tr *tracer
}

func (s spanStore) Read(id uint64, dst []byte) error {
	i := s.tr.begin(kDiskRead)
	err := s.Store.Read(id, dst)
	s.tr.end(i)
	return err
}

func (s spanStore) Write(id uint64, data []byte) error {
	i := s.tr.begin(kDiskWrite)
	err := s.Store.Write(id, data)
	s.tr.end(i)
	return err
}

// spanMat and spanView decorate the apps.Backend matrices SOR uses;
// its steady phase touches them only through row views.
type spanMat struct {
	apps.MatF64
	tr *tracer
}

func (m spanMat) RowView(r int) apps.ViewF64 {
	i := m.tr.begin(kViewOpen)
	v := m.MatF64.RowView(r) //lint:allow viewclose returned inside spanView, whose Release releases it
	m.tr.end(i)
	return spanView{v, m.tr}
}

func (m spanMat) RowViewRW(r int) apps.ViewF64 {
	i := m.tr.begin(kViewOpen)
	v := m.MatF64.RowViewRW(r) //lint:allow viewclose returned inside spanView, whose Release releases it
	m.tr.end(i)
	return spanView{v, m.tr}
}

type spanView struct {
	apps.ViewF64
	tr *tracer
}

func (v spanView) Release() {
	i := v.tr.begin(kViewRelease)
	v.ViewF64.Release()
	v.tr.end(i)
}
