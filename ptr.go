package lots

import (
	"unsafe"

	"repro/internal/object"
)

// Elem is the set of element types shared arrays may hold. The paper's
// Pointer<T> is a C++ class template; this reproduction supports the
// fixed-size scalar types scientific codes use.
type Elem interface {
	byte | int32 | uint32 | int64 | uint64 | float32 | float64
}

// Ptr is a handle to a shared object — the analogue of the paper's
// Pointer class, which "contains only the object ID, which fits the
// size of a pointer", making pointer arithmetic possible (§3.3). A Ptr
// holds the object ID plus an element offset so that expressions like
// *(a+4) = 1 translate to a.Add(4).SetDeref(1).
//
// Every Get/Set goes through the LOTS access check: a table lookup in
// the common case; a dynamic memory mapping (possibly a disk read, and
// possibly swapping another object out) when the object is not mapped;
// and a coherence fetch when the local copy is not clean.
type Ptr[T Elem] struct {
	n   *Node
	id  object.ID
	off int // element offset for pointer arithmetic
}

// Alloc declares a shared object of count elements and allocates its
// control information on the calling node. It is a collective
// operation: every node must call Alloc in the same order with the same
// arguments (SPMD), which makes the generated object IDs agree
// cluster-wide without communication, as in the paper (§3.2). Physical
// memory for the data is NOT allocated here; it is mapped on first
// access.
func Alloc[T Elem](n *Node, count int) Ptr[T] {
	if count <= 0 {
		n.fatalf("lots: node %d: Alloc of %d elements", n.id, count)
	}
	elem := elemSize[T]()
	n.mu.Lock()
	defer n.mu.Unlock()
	id := n.table.Declare()
	c := &object.Control{
		ID:    id,
		Size:  count * elem,
		Elem:  elem,
		Home:  int(uint64(id) % uint64(n.cfg.Nodes)),
		State: object.Initial,
	}
	if err := n.table.Register(c); err != nil {
		n.fatalf("lots: node %d: %v", n.id, err)
	}
	return Ptr[T]{n: n, id: id}
}

// Nil reports whether the pointer is unallocated.
func (p Ptr[T]) Nil() bool { return p.id == object.NilID }

// ObjectID exposes the shared object ID (diagnostics).
func (p Ptr[T]) ObjectID() uint64 { return uint64(p.id) }

// Len returns the number of elements reachable from this pointer
// (shrinks as the pointer is advanced, like C pointer arithmetic
// against the end of the array).
func (p Ptr[T]) Len() int {
	c := p.n.lookup(p.id)
	return c.Size/c.Elem - p.off
}

// Add returns a pointer advanced by k elements — the paper's supported
// pointer arithmetic on shared objects.
func (p Ptr[T]) Add(k int) Ptr[T] {
	p.off += k
	return p
}

// Get reads element i (relative to the pointer's current offset). It
// is a one-element view: check, pin, read, unpin, all under one node
// lock acquisition.
func (p Ptr[T]) Get(i int) T {
	n := p.n
	n.mu.Lock()
	defer n.mu.Unlock()
	c, s := p.enter(i, 1, false)
	v := s[0]
	n.viewExit(c, false)
	return v
}

// Set writes element i (a one-element RW view).
func (p Ptr[T]) Set(i int, v T) {
	n := p.n
	n.mu.Lock()
	defer n.mu.Unlock()
	c, s := p.enter(i, 1, true)
	s[0] = v
	n.viewExit(c, true)
}

// Deref reads *(p), i.e. element 0.
func (p Ptr[T]) Deref() T { return p.Get(0) }

// SetDeref writes *(p) = v.
func (p Ptr[T]) SetDeref(v T) { p.Set(0, v) }

// GetN bulk-reads count elements starting at i: a one-span view that
// copies out. It keeps the paper's element-wise accounting (an
// n-element sweep of the C++ runtime performs n status checks, §4.2);
// use View/CopyTo to both skip the copy and pay a single check.
func (p Ptr[T]) GetN(i, count int) []T {
	if count == 0 {
		return nil
	}
	n := p.n
	n.mu.Lock()
	defer n.mu.Unlock()
	c, s := p.enter(i, count, false)
	n.chargeChecks(count - 1)
	out := make([]T, count)
	copy(out, s)
	n.viewExit(c, false)
	return out
}

// SetN bulk-writes vals starting at element i (a one-span RW view with
// the legacy per-element check accounting; use ViewRW/CopyFrom for the
// single-check path).
func (p Ptr[T]) SetN(i int, vals []T) {
	if len(vals) == 0 {
		return
	}
	n := p.n
	n.mu.Lock()
	defer n.mu.Unlock()
	c, s := p.enter(i, len(vals), true)
	n.chargeChecks(len(vals) - 1)
	copy(s, vals)
	n.viewExit(c, true)
}

// Pin maps the object in and pins it against swapping, returning the
// unpin function. It implements the statement-scope pinning of §3.3:
// pin every object referenced by a multi-object statement, perform the
// accesses, then unpin.
func (p Ptr[T]) Pin() (unpin func()) {
	n := p.n
	n.mu.Lock()
	defer n.mu.Unlock()
	c := n.lookup(p.id)
	if c.State == object.Invalid {
		n.fetchObject(c)
	}
	n.objData(c)
	if n.mapper == nil {
		return func() {}
	}
	n.mapper.Pin(c)
	return func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		n.mapper.Unpin(c)
	}
}

// locate validates [i, i+count) against the object bounds and returns
// the control block plus the base byte offset. Caller holds n.mu.
func (p Ptr[T]) locate(i, count int) (*object.Control, int) {
	c := p.n.lookup(p.id)
	first := p.off + i
	if first < 0 || count < 0 || (first+count)*c.Elem > c.Size {
		p.n.fatalf("lots: node %d: object %d: access [%d,%d) out of bounds (len %d)",
			p.n.id, p.id, first, first+count, c.Size/c.Elem)
	}
	return c, first * c.Elem
}

// enter opens elements [i, i+count) as one span — bounds check, then
// viewEnter's access (or write) check and pin — and returns the span's
// mapped bytes aliased as []T. Caller holds n.mu and must viewExit(c,
// rw).
func (p Ptr[T]) enter(i, count int, rw bool) (*object.Control, []T) {
	c, base := p.locate(i, count)
	data := p.n.viewEnter(c, rw)
	return c, alias[T](p.n, c, data[base:base+count*c.Elem])
}

// Matrix is a 2-D shared array. Following the paper, each row is a
// separate shared object: "For pointer of pointers or 2-dimension
// arrays, LOTS treats each pointer or row as a separate object" (§3.2).
// This is what eliminates false sharing in LU and SOR.
type Matrix[T Elem] struct {
	rows []Ptr[T]
	cols int
}

// AllocMatrix declares rows×cols shared elements as `rows` separate
// row objects. Collective, like Alloc.
func AllocMatrix[T Elem](n *Node, rows, cols int) Matrix[T] {
	m := Matrix[T]{rows: make([]Ptr[T], rows), cols: cols}
	for r := range m.rows {
		m.rows[r] = Alloc[T](n, cols)
	}
	return m
}

// Rows returns the number of rows.
func (m Matrix[T]) Rows() int { return len(m.rows) }

// Cols returns the number of columns.
func (m Matrix[T]) Cols() int { return m.cols }

// Row returns the shared object holding row r.
func (m Matrix[T]) Row(r int) Ptr[T] { return m.rows[r] }

// Get reads element (r, c).
func (m Matrix[T]) Get(r, c int) T { return m.rows[r].Get(c) }

// Set writes element (r, c).
func (m Matrix[T]) Set(r, c int, v T) { m.rows[r].Set(c, v) }

// RowView returns a read-only pinned view of an entire row — the unit
// the paper's row-per-object layout (§3.2) makes natural.
func (m Matrix[T]) RowView(r int) View[T] { return m.rows[r].View(0, m.cols) }

// RowViewRW returns a read-write pinned view of an entire row.
func (m Matrix[T]) RowViewRW(r int) View[T] { return m.rows[r].ViewRW(0, m.cols) }

// GetRow bulk-reads an entire row through a row view: one access check
// for the row, then a straight copy out.
func (m Matrix[T]) GetRow(r int) []T {
	v := m.RowView(r)
	out := make([]T, m.cols)
	v.CopyTo(out)
	v.Release()
	return out
}

// SetRow bulk-writes an entire row through a row view (one write
// check + twin for the row).
func (m Matrix[T]) SetRow(r int, vals []T) {
	if len(vals) != m.cols {
		m.rows[r].n.fatalf("lots: SetRow of %d values into %d columns", len(vals), m.cols)
	}
	v := m.RowViewRW(r)
	v.CopyFrom(vals)
	v.Release()
}

// ---- element layout -----------------------------------------------------

// elemSize returns the byte size of T.
func elemSize[T Elem]() int {
	var z T
	return int(unsafe.Sizeof(z))
}

// alias reinterprets the span b of object c's mapped bytes as []T,
// without copying. Object bytes are little-endian (the wire, diff,
// spill and digest formats all depend on it; endian_big.go refuses
// big-endian builds), so on the supported GOARCHes the native []T
// layout is exactly that encoding. Both backings of object bytes — the
// DMM arena at its 8-byte granule, and a per-object heap slice —
// start every object on a boundary that suits its element type; a span
// that is not aligned to T would fault or tear on some GOARCHes and is
// a fatal error, not a slow path.
func alias[T Elem](n *Node, c *object.Control, b []byte) []T {
	if len(b) == 0 {
		return nil
	}
	var z T
	p := unsafe.Pointer(unsafe.SliceData(b))
	if uintptr(p)%unsafe.Alignof(z) != 0 {
		n.fatalf("lots: node %d: object %d: span at %p misaligned for %d-byte elements",
			n.id, c.ID, p, unsafe.Alignof(z))
	}
	return unsafe.Slice((*T)(p), len(b)/int(unsafe.Sizeof(z)))
}
