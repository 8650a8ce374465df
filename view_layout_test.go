package lots

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"unsafe"
)

// Typed-view tests: View and Ptr alias the object's mapped bytes as
// native []T, so these pin the byte layout (little-endian, identical to
// encoding/binary), the alignment contract, the zero-allocation element
// path, and the min-length and release semantics of the typed accessors.

// leBytes is the reference encoding of vals: encoding/binary's
// little-endian layout, which the wire, diff, spill and digest formats
// all assume of object bytes.
func leBytes[T Elem](vals []T) []byte {
	var b bytes.Buffer
	if err := binary.Write(&b, binary.LittleEndian, vals); err != nil {
		panic(err)
	}
	return b.Bytes()
}

// rawBytes copies the object's current mapped bytes.
func rawBytes[T Elem](p Ptr[T]) []byte {
	n := p.n
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]byte(nil), n.objData(n.lookup(p.id))...)
}

// runCluster runs fn on every node of a fresh cluster built from cfg.
func runCluster(t *testing.T, cfg Config, fn func(n *Node)) {
	t.Helper()
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Run(fn); err != nil {
		t.Fatal(err)
	}
}

// layoutWriters are the four typed write paths whose result must be the
// little-endian encoding of vals.
func layoutWriters[T Elem](vals []T) []struct {
	name  string
	write func(p Ptr[T])
} {
	return []struct {
		name  string
		write func(p Ptr[T])
	}{
		{"View.Set", func(p Ptr[T]) {
			v := p.ViewRW(0, len(vals))
			for k, x := range vals {
				v.Set(k, x)
			}
			v.Release()
		}},
		{"View.CopyFrom", func(p Ptr[T]) {
			v := p.ViewRW(0, len(vals))
			v.CopyFrom(vals)
			v.Release()
		}},
		{"Ptr.Set", func(p Ptr[T]) {
			for k, x := range vals {
				p.Set(k, x)
			}
		}},
		{"Ptr.SetN", func(p Ptr[T]) { p.SetN(0, vals) }},
	}
}

// readBack asserts that At, Get and GetN all return vals bit for bit
// (compared as encodings, so NaN payloads and -0 count).
func readBack[T Elem](who string, p Ptr[T], vals []T) {
	want := leBytes(vals)
	v := p.View(0, len(vals))
	at := make([]T, len(vals))
	get := make([]T, len(vals))
	for k := range vals {
		at[k] = v.At(k)
		get[k] = p.Get(k)
	}
	v.Release()
	for path, got := range map[string][]T{"At": at, "Get": get, "GetN": p.GetN(0, len(vals))} {
		if !bytes.Equal(leBytes(got), want) {
			panic(fmt.Sprintf("%s: %T read back through %s as %v, want %v", who, vals, path, got, vals))
		}
	}
}

func checkLayout[T Elem](t *testing.T, vals []T) {
	want := leBytes(vals)
	for _, large := range []bool{true, false} {
		cfg := DefaultConfig(1)
		cfg.LargeObjectSpace = large
		runCluster(t, cfg, func(n *Node) {
			for _, w := range layoutWriters(vals) {
				p := Alloc[T](n, len(vals))
				w.write(p)
				if got := rawBytes(p); !bytes.Equal(got, want) {
					panic(fmt.Sprintf("%T via %s (large space %v): object bytes % x, want % x",
						vals, w.name, large, got, want))
				}
				readBack(w.name, p, vals)
			}
		})
	}
}

// checkPeerReadback has both nodes of a 2-node cluster write one half
// of a shared object each — node 0 through View.Set, node 1 through
// View.CopyFrom — so the barrier ships a diff to the object's home and
// the other node invalidates and fetches. Each node must then read the
// whole object back unchanged through At and Get.
func checkPeerReadback[T Elem](t *testing.T, vals []T) {
	m := len(vals)
	all := append(append([]T(nil), vals...), vals...)
	runCluster(t, DefaultConfig(2), func(n *Node) {
		p := Alloc[T](n, 2*m)
		n.Barrier()
		v := p.ViewRW(n.ID()*m, m)
		if n.ID() == 0 {
			for k, x := range vals {
				v.Set(k, x)
			}
		} else {
			v.CopyFrom(vals)
		}
		v.Release()
		diffs, fetches := n.ctr.DiffsMade.Load(), n.ctr.ObjFetches.Load()
		n.Barrier()
		home := int(uint64(p.id) % 2)
		if n.ID() != home && n.ctr.DiffsMade.Load() == diffs {
			panic(fmt.Sprintf("node %d sent no barrier diff for %T", n.ID(), vals))
		}
		readBack(fmt.Sprintf("node %d", n.ID()), p, all)
		if n.ID() != home && n.ctr.ObjFetches.Load() == fetches {
			panic(fmt.Sprintf("node %d read %T without a fetch", n.ID(), vals))
		}
		if got := rawBytes(p); !bytes.Equal(got, leBytes(all)) {
			panic(fmt.Sprintf("node %d: %T object bytes % x after barrier", n.ID(), vals, got))
		}
		n.Barrier()
	})
}

// Layout values exercise sign bits, every byte lane, and float
// specials (compared as encodings, so NaN payloads and -0 must
// survive). Each slice holds 8 elements, so the two halves written by
// checkPeerReadback never share a diff word.
var (
	layoutBytes   = []byte{0, 1, 0x7f, 0x80, 0xfe, 0xff, 0x5a, 0xa5}
	layoutInt32   = []int32{0, -1, math.MinInt32, math.MaxInt32, 0x01020304, -0x01020304, 7, -7}
	layoutUint32  = []uint32{0, 1, math.MaxUint32, 0x80000000, 0x01020304, 0xa1b2c3d4, 0xff, 0xff00}
	layoutInt64   = []int64{0, -1, math.MinInt64, math.MaxInt64, 0x0102030405060708, -0x0102030405060708, 1 << 32, -1 << 32}
	layoutUint64  = []uint64{0, 1, math.MaxUint64, 1 << 63, 0x0102030405060708, 0xa1b2c3d4e5f60718, 1 << 32, 0xff}
	layoutFloat32 = []float32{0, float32(math.Copysign(0, -1)), 1.5, -3.25e-20, math.MaxFloat32,
		math.SmallestNonzeroFloat32, float32(math.Inf(-1)), math.Float32frombits(0x7fc00001)}
	layoutFloat64 = []float64{0, math.Copysign(0, -1), math.Pi, -2.5e-300, math.MaxFloat64,
		math.SmallestNonzeroFloat64, math.Inf(1), math.Float64frombits(0x7ff8000000000001)}
)

// TestViewLayoutLittleEndian: View.Set, View.CopyFrom, Ptr.Set and
// Ptr.SetN must all leave the encoding/binary little-endian encoding in
// the object's bytes, with the DMM arena and with per-object heap
// backing.
func TestViewLayoutLittleEndian(t *testing.T) {
	t.Run("byte", func(t *testing.T) { checkLayout(t, layoutBytes) })
	t.Run("int32", func(t *testing.T) { checkLayout(t, layoutInt32) })
	t.Run("uint32", func(t *testing.T) { checkLayout(t, layoutUint32) })
	t.Run("int64", func(t *testing.T) { checkLayout(t, layoutInt64) })
	t.Run("uint64", func(t *testing.T) { checkLayout(t, layoutUint64) })
	t.Run("float32", func(t *testing.T) { checkLayout(t, layoutFloat32) })
	t.Run("float64", func(t *testing.T) { checkLayout(t, layoutFloat64) })
}

// TestViewLayoutPeerReadback: values that reach a peer as a barrier
// diff (at the home) or by fetch (everywhere else) read back
// identically through At and Get.
func TestViewLayoutPeerReadback(t *testing.T) {
	t.Run("byte", func(t *testing.T) { checkPeerReadback(t, layoutBytes) })
	t.Run("int32", func(t *testing.T) { checkPeerReadback(t, layoutInt32) })
	t.Run("uint32", func(t *testing.T) { checkPeerReadback(t, layoutUint32) })
	t.Run("int64", func(t *testing.T) { checkPeerReadback(t, layoutInt64) })
	t.Run("uint64", func(t *testing.T) { checkPeerReadback(t, layoutUint64) })
	t.Run("float32", func(t *testing.T) { checkPeerReadback(t, layoutFloat32) })
	t.Run("float64", func(t *testing.T) { checkPeerReadback(t, layoutFloat64) })
}

// checkAligned fills p and opens a view at every offset i>0, directly
// and through pointer arithmetic, plus a Slice of each: every one must
// alias an address aligned for T and read the right elements.
func checkAligned[T Elem](p Ptr[T]) {
	m := p.Len()
	want := make([]T, m)
	for k := range want {
		want[k] = T(3*k + 1)
	}
	p.SetN(0, want)
	aligned := func(s []T) {
		var z T
		if a := uintptr(unsafe.Pointer(unsafe.SliceData(s))); a%unsafe.Alignof(z) != 0 {
			panic(fmt.Sprintf("%T view at %#x is misaligned", z, a))
		}
	}
	for i := 1; i < m; i++ {
		for _, v := range []View[T]{p.View(i, m-i), p.Add(i).View(0, m-i)} {
			aligned(v.s)
			for k := 0; k < v.Len(); k++ {
				if got := v.At(k); got != want[i+k] {
					panic(fmt.Sprintf("%T view at %d: At(%d) = %v, want %v", got, i, k, got, want[i+k]))
				}
			}
			s := v.Slice(1, v.Len())
			if s.Len() > 0 {
				aligned(s.s)
				if got := s.At(0); got != want[i+1] {
					panic(fmt.Sprintf("%T slice of view at %d: At(0) = %v, want %v", got, i, got, want[i+1]))
				}
			}
			v.Release()
		}
	}
}

// TestViewAlignment opens views at i>0 offsets and through Slice over
// byte, int32, int64 and float64 objects of odd sizes, interleaved so
// that no object's size is a multiple of the next one's alignment,
// with both object backings (DMM arena and per-object heap slices).
func TestViewAlignment(t *testing.T) {
	for _, large := range []bool{true, false} {
		cfg := DefaultConfig(1)
		cfg.LargeObjectSpace = large
		runCluster(t, cfg, func(n *Node) {
			b := Alloc[byte](n, 13)
			i32 := Alloc[int32](n, 7)
			b3 := Alloc[byte](n, 3)
			i64 := Alloc[int64](n, 5)
			i32b := Alloc[int32](n, 3)
			f64 := Alloc[float64](n, 9)
			checkAligned(b)
			checkAligned(i32)
			checkAligned(b3)
			checkAligned(i64)
			checkAligned(i32b)
			checkAligned(f64)
		})
	}
}

// TestViewMisalignedSpanFails: a span whose bytes are not aligned for T
// is a named fatal error, never a silently unaligned alias.
func TestViewMisalignedSpanFails(t *testing.T) {
	runExpectError(t, "misaligned", func(n *Node) {
		a := Alloc[int64](n, 2)
		n.mu.Lock()
		c := n.lookup(a.id)
		n.mu.Unlock()
		buf := make([]byte, 24)
		off := 1
		if uintptr(unsafe.Pointer(&buf[off]))%unsafe.Alignof(int64(0)) == 0 {
			off++
		}
		alias[int64](n, c, buf[off:off+8])
	})
}

// TestViewZeroAllocs: element access and bulk copies on an open view
// allocate nothing.
func TestViewZeroAllocs(t *testing.T) {
	runCluster(t, DefaultConfig(1), func(n *Node) {
		a := Alloc[float64](n, 256)
		v := a.ViewRW(0, 256)
		buf := make([]float64, 256)
		allocs := testing.AllocsPerRun(200, func() {
			for k := 0; k < v.Len(); k++ {
				v.Set(k, v.At(k)+1)
			}
			v.CopyTo(buf)
			v.CopyFrom(buf)
		})
		v.Release()
		if allocs != 0 {
			panic(fmt.Sprintf("open view: %v allocs/run over At/Set/CopyTo/CopyFrom, want 0", allocs))
		}
	})
}

// TestViewCopyMinLength: CopyTo and CopyFrom copy min(len(buf),
// v.Len()) elements, return that count, and touch nothing else — not
// the rest of the buffer, not the rest of the view, not the object
// outside the view. An empty view copies nothing.
func TestViewCopyMinLength(t *testing.T) {
	runCluster(t, DefaultConfig(1), func(n *Node) {
		a := Alloc[int32](n, 16)
		obj := make([]int32, 16)
		for k := range obj {
			obj[k] = int32(k)
		}
		a.SetN(0, obj)
		expect := func(what string, got, want []int32) {
			if fmt.Sprint(got) != fmt.Sprint(want) {
				panic(fmt.Sprintf("%s = %v, want %v", what, got, want))
			}
		}
		v := a.ViewRW(4, 8) // elements 4..11
		short := []int32{-1, -1, -1}
		if m := v.CopyTo(short); m != 3 {
			panic(fmt.Sprintf("CopyTo(short) = %d, want 3", m))
		}
		expect("short CopyTo buffer", short, []int32{4, 5, 6})
		long := []int32{-1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1}
		if m := v.CopyTo(long); m != 8 {
			panic(fmt.Sprintf("CopyTo(long) = %d, want 8", m))
		}
		expect("long CopyTo buffer", long, []int32{4, 5, 6, 7, 8, 9, 10, 11, -1, -1, -1, -1})

		if m := v.CopyFrom([]int32{100, 101, 102}); m != 3 {
			panic(fmt.Sprintf("CopyFrom(short) = %d, want 3", m))
		}
		v.Release()
		expect("object after short CopyFrom", a.GetN(0, 16),
			[]int32{0, 1, 2, 3, 100, 101, 102, 7, 8, 9, 10, 11, 12, 13, 14, 15})

		v = a.ViewRW(4, 8)
		src := make([]int32, 12)
		for k := range src {
			src[k] = int32(200 + k)
		}
		if m := v.CopyFrom(src); m != 8 {
			panic(fmt.Sprintf("CopyFrom(long) = %d, want 8", m))
		}
		v.Release()
		expect("object after long CopyFrom", a.GetN(0, 16),
			[]int32{0, 1, 2, 3, 200, 201, 202, 203, 204, 205, 206, 207, 12, 13, 14, 15})

		// An empty view at the end of the object aliases no bytes.
		e := a.View(16, 0)
		if e.Len() != 0 || e.CopyTo(long) != 0 {
			panic(fmt.Sprintf("empty view: Len %d", e.Len()))
		}
		e.Release()
	})
}

// TestViewSliceAliasAfterParentReleaseFails: a Slice alias shares its
// parent's release state, so element access through it after the
// parent's Release aborts.
func TestViewSliceAliasAfterParentReleaseFails(t *testing.T) {
	runExpectError(t, "released view", func(n *Node) {
		a := Alloc[int32](n, 8)
		v := a.View(0, 8)
		s := v.Slice(2, 6)
		v.Release()
		s.At(0)
	})
	runExpectError(t, "released view", func(n *Node) {
		a := Alloc[int32](n, 8)
		v := a.ViewRW(0, 8)
		s := v.Slice(2, 6)
		v.Release()
		s.Set(0, 1)
	})
}

// TestViewSetOnReleasedReadOnlyFails: a Set through a read-only view
// that is also released names the release, the first misuse.
func TestViewSetOnReleasedReadOnlyFails(t *testing.T) {
	runExpectError(t, "released view", func(n *Node) {
		a := Alloc[int32](n, 8)
		v := a.View(0, 8)
		v.Release()
		v.Set(0, 1)
	})
}
