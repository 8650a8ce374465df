package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"time"

	lots "repro"
	"repro/internal/apps"
	"repro/internal/disk"
	"repro/internal/platform"
)

// workloadNames lists the workloads in the order "all" runs them.
var workloadNames = []string{"sor-resident", "outofcore-zipf", "locks-udp"}

// newWorkload generates the inputs of one of workloadNames from seed.
// Everything the program receives is fixed here, before the first
// cluster exists.
func newWorkload(name string, seed int64) workload {
	switch name {
	case "sor-resident":
		return newSOR()
	case "outofcore-zipf":
		return newZipf(seed)
	case "locks-udp":
		return newLocks(seed)
	}
	panic("e2ebench: unknown workload " + name)
}

// --- sor-resident ----------------------------------------------------

const (
	sorN     = 256
	sorIters = 256 // the paper's iteration count
	sorDMM   = 16 << 20
)

// sorWorkload runs apps.SOR unchanged; its input is fixed by the
// paper's boundary condition, so the seed does not change it. An op is
// one relaxation epoch: the span between two barrier exits.
type sorWorkload struct {
	want string // digest of a sequential solve, computed once
}

func newSOR() *sorWorkload { return &sorWorkload{want: sorReference(sorN, sorIters)} }

func (w *sorWorkload) ops() int { return ranks * 2 * sorIters }

func (w *sorWorkload) config(h *rep) lots.Config {
	cfg := lots.DefaultConfig(ranks)
	cfg.Platform = platform.PIV2GFedora()
	cfg.DMMSize = sorDMM
	return cfg
}

func (w *sorWorkload) rank(n *lots.Node, h *rep) {
	b := &sorBackend{LotsBackend: apps.NewLotsBackend(n), h: h, tr: h.tr[n.ID()]}
	_, digest := apps.SORDigest(b, apps.SORConfig{N: sorN, Iters: sorIters})
	if digest != w.want {
		h.fail("rank %d: SOR digest %s, sequential solve gives %s", n.ID(), digest, w.want)
	}
}

// sorBackend decorates the apps.Backend SOR runs on: it finds the
// phase boundaries among SOR's barriers, times epochs, and records
// spans around the view and barrier calls of a traced rep.
type sorBackend struct {
	*apps.LotsBackend
	h        *rep
	tr       *tracer
	barriers int
	last     time.Time
}

func (b *sorBackend) AllocMatF64(rows, cols int) apps.MatF64 {
	m := b.LotsBackend.AllocMatF64(rows, cols)
	if b.tr == nil {
		return m
	}
	return spanMat{m, b.tr}
}

// Barrier 1 ends set-up; barriers 2..2*Iters+1 each end one epoch;
// later ones belong to SOR's own verification.
func (b *sorBackend) Barrier() {
	i := b.tr.begin(kBarrier)
	b.LotsBackend.Barrier()
	b.tr.end(i)
	b.barriers++
	n := b.N_
	switch k := b.barriers; {
	case k == 1:
		b.h.setupDone(n)
		b.h.steadyStart(n)
		b.last = time.Now()
	case k <= 2*sorIters+1:
		now := time.Now()
		b.h.lat[n.ID()] = append(b.h.lat[n.ID()], now.Sub(b.last))
		b.last = now
		if k == 2*sorIters+1 {
			b.h.steadyEnd(n)
		}
	}
	b.h.op(n, b.barriers)
}

// sorReference solves the same red-black relaxation sequentially and
// digests both grids the way apps.SORDigest does: row-major float64
// bit patterns, little endian, red then black.
func sorReference(n, iters int) string {
	grid := func() [][]float64 {
		g := make([][]float64, n)
		for r := range g {
			g[r] = make([]float64, n)
		}
		for c := range g[0] {
			g[0][c] = 1
		}
		return g
	}
	red, black := grid(), grid()
	relax := func(dst, src [][]float64) {
		for r := 1; r < n-1; r++ {
			for c := 1; c < n-1; c++ {
				dst[r][c] = 0.25 * (src[r-1][c] + src[r+1][c] + src[r][c-1] + src[r][c+1])
			}
		}
	}
	for it := 0; it < iters; it++ {
		relax(red, black)
		relax(black, red)
	}
	h := sha256.New()
	var buf [8]byte
	for _, g := range [][][]float64{red, black} {
		for _, row := range g {
			for _, v := range row {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// --- outofcore-zipf --------------------------------------------------

const (
	zipfRowsPerRank = 512
	zipfRowInts     = 4096 // 16 KiB rows
	zipfDMM         = 1 << 20
	zipfOpsPerRank  = 8192
	zipfBarrierEach = 256
	zipfWriteStride = 16
	zipfS           = 1.1
)

type zipfOp struct {
	row   int32 // global row index
	write bool
}

// zipfWorkload pages a 16 MiB row array through 1 MiB DMM areas backed
// by real files. Rank r owns rows r, r+ranks, ...; its ops pick rows
// Zipf-distributed over a seeded permutation of them.
type zipfWorkload struct {
	salt int32
	ops_ [ranks][]zipfOp
	rest []int64 // per row: sum of the words writes never touch
}

func newZipf(seed int64) *zipfWorkload {
	w := &zipfWorkload{salt: int32(seed & 0x7fff)}
	for r := 0; r < ranks; r++ {
		rng := rand.New(rand.NewSource(seed*ranks + int64(r)))
		perm := rng.Perm(zipfRowsPerRank)
		z := rand.NewZipf(rng, zipfS, 1, zipfRowsPerRank-1)
		ops := make([]zipfOp, zipfOpsPerRank)
		for i := range ops {
			local := perm[z.Uint64()]
			ops[i] = zipfOp{row: int32(local*ranks + r), write: rng.Intn(4) == 0}
		}
		w.ops_[r] = ops
	}
	total := zipfRowsPerRank * ranks
	w.rest = make([]int64, total)
	for row := 0; row < total; row++ {
		for k := 0; k < zipfRowInts; k++ {
			if k%zipfWriteStride != 0 {
				w.rest[row] += int64(w.word(row, 0, k))
			}
		}
	}
	return w
}

// word is the value of word k of row after its ver-th write (ver 0 is
// the initial fill).
func (w *zipfWorkload) word(row, ver, k int) int32 {
	if ver == 0 {
		return (int32(row)*131 + int32(k)*7 + w.salt) & 0xffff
	}
	return (int32(row)*17 + int32(ver)*101 + int32(k) + w.salt) & 0xffff
}

// sum is the expected sum of row after its ver-th write.
func (w *zipfWorkload) sum(row, ver int) int64 {
	s := w.rest[row]
	for k := 0; k < zipfRowInts; k += zipfWriteStride {
		s += int64(w.word(row, ver, k))
	}
	return s
}

func (w *zipfWorkload) ops() int { return ranks * zipfOpsPerRank }

func (w *zipfWorkload) config(h *rep) lots.Config {
	cfg := lots.DefaultConfig(ranks)
	cfg.Platform = platform.PIV2GFedora()
	cfg.DMMSize = zipfDMM
	cfg.Store = func(i int) disk.Store { return h.store(cfg.Platform, i) }
	return cfg
}

func (w *zipfWorkload) rank(n *lots.Node, h *rep) {
	me := n.ID()
	total := zipfRowsPerRank * ranks
	m := lots.AllocMatrix[int32](n, total, zipfRowInts)
	for row := me; row < total; row += ranks {
		v := m.RowViewRW(row)
		for k := 0; k < zipfRowInts; k++ {
			v.Set(k, w.word(row, 0, k))
		}
		v.Release()
	}
	n.Barrier()
	h.setupDone(n)

	// The model: per row, how many times it was written and the sum a
	// read must see.
	ver := make([]int, total)
	want := make([]int64, total)
	for row := me; row < total; row += ranks {
		want[row] = w.sum(row, 0)
	}
	tr := h.tr[me]
	h.steadyStart(n)
	for i, op := range w.ops_[me] {
		if i > 0 && i%zipfBarrierEach == 0 {
			j := tr.begin(kBarrier)
			n.Barrier()
			tr.end(j)
		}
		h.op(n, i)
		row := int(op.row)
		t := time.Now()
		var got int64
		if op.write {
			w.writeRow(m, row, ver[row]+1, tr)
		} else {
			got = readRow(m, row, tr)
		}
		h.lat[me] = append(h.lat[me], time.Since(t))
		if op.write {
			ver[row]++
			want[row] = w.sum(row, ver[row])
		} else if got != want[row] {
			h.fail("rank %d op %d: row %d sums to %d, want %d", me, i, row, got, want[row])
		}
	}
	j := tr.begin(kBarrier)
	n.Barrier()
	tr.end(j)
	h.steadyEnd(n)

	// Verification sweep: every owned row, word by word.
	for row := me; row < total; row += ranks {
		v := m.RowView(row)
		for k := 0; k < zipfRowInts; k++ {
			want := w.word(row, 0, k)
			if k%zipfWriteStride == 0 {
				want = w.word(row, ver[row], k)
			}
			if got := v.At(k); got != want {
				h.fail("rank %d: row %d word %d = %d after the run, want %d", me, row, k, got, want)
				break
			}
		}
		v.Release()
	}
	n.Barrier()
}

// readRow is a read op: open a view of row, sum it, release it.
func readRow(m lots.Matrix[int32], row int, tr *tracer) int64 {
	j := tr.begin(kViewOpen)
	v := m.RowView(row)
	tr.end(j)
	var sum int64
	for k := 0; k < zipfRowInts; k++ {
		sum += int64(v.At(k))
	}
	j = tr.begin(kViewRelease)
	v.Release()
	tr.end(j)
	return sum
}

// writeRow is a write op: open a RW view of row, store its ver-th
// values in every zipfWriteStride-th word, release it.
func (w *zipfWorkload) writeRow(m lots.Matrix[int32], row, ver int, tr *tracer) {
	j := tr.begin(kViewOpen)
	v := m.RowViewRW(row)
	tr.end(j)
	for k := 0; k < zipfRowInts; k += zipfWriteStride {
		v.Set(k, w.word(row, ver, k))
	}
	j = tr.begin(kViewRelease)
	v.Release()
	tr.end(j)
}

// --- locks-udp -------------------------------------------------------

const (
	lockCount       = 16
	lockWords       = 64
	lockOpsPerRank  = 3000
	lockBarrierEach = 100
)

type lockOp struct{ lock, word int16 }

// lockWorkload increments seeded words of lock-guarded objects inside
// critical sections, over real UDP loopback sockets.
type lockWorkload struct {
	ops_ [ranks][]lockOp
	want [lockCount][lockWords]int32 // increments each word must show
}

func newLocks(seed int64) *lockWorkload {
	w := &lockWorkload{}
	for r := 0; r < ranks; r++ {
		rng := rand.New(rand.NewSource(seed*ranks + int64(r)))
		ops := make([]lockOp, lockOpsPerRank)
		for i := range ops {
			op := lockOp{lock: int16(rng.Intn(lockCount)), word: int16(rng.Intn(lockWords))}
			ops[i] = op
			w.want[op.lock][op.word]++
		}
		w.ops_[r] = ops
	}
	return w
}

func (w *lockWorkload) ops() int { return ranks * lockOpsPerRank }

func (w *lockWorkload) config(h *rep) lots.Config {
	cfg := lots.DefaultConfig(ranks)
	cfg.Platform = platform.PIV2GFedora()
	cfg.Transport = lots.TransportUDP
	return cfg
}

func (w *lockWorkload) rank(n *lots.Node, h *rep) {
	me := n.ID()
	var objs [lockCount]lots.Ptr[int32]
	for l := range objs {
		objs[l] = lots.Alloc[int32](n, lockWords)
	}
	n.Barrier()
	h.setupDone(n)

	tr := h.tr[me]
	h.steadyStart(n)
	for i, op := range w.ops_[me] {
		if i > 0 && i%lockBarrierEach == 0 {
			j := tr.begin(kBarrier)
			n.Barrier()
			tr.end(j)
		}
		h.op(n, i)
		l := int(op.lock)
		t := time.Now()
		j := tr.begin(kAcquire)
		n.Acquire(l)
		tr.end(j)
		j = tr.begin(kViewOpen)
		v := objs[l].ViewRW(int(op.word), 1)
		tr.end(j)
		v.Set(0, v.At(0)+1)
		j = tr.begin(kViewRelease)
		v.Release()
		tr.end(j)
		j = tr.begin(kRelease)
		n.Release(l)
		tr.end(j)
		h.lat[me] = append(h.lat[me], time.Since(t))
	}
	j := tr.begin(kBarrier)
	n.Barrier()
	tr.end(j)
	h.steadyEnd(n)

	// Every rank checks every word; the counters must add up to the
	// number of critical sections.
	var total int64
	for l := range objs {
		got := objs[l].GetN(0, lockWords)
		for k, v := range got {
			total += int64(v)
			if v != w.want[l][k] {
				h.fail("rank %d: lock %d word %d = %d, want %d", me, l, k, v, w.want[l][k])
			}
		}
	}
	if total != int64(w.ops()) {
		h.fail("rank %d: counters sum to %d, want %d critical sections", me, total, w.ops())
	}
	n.Barrier()
}
