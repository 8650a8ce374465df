package lots

import "repro/internal/object"

// Pinned zero-copy views (§3.3, statement-scope pinning generalized).
//
// The paper's whole argument for object-granularity access checks is
// that their cost is amortized over large-object accesses — yet an
// element-wise Ptr.Get/Set loop pays the full toll per element: one
// node-mutex acquisition, one table lookup, one status check. A View is
// the API that actually delivers the amortization: creation performs
// exactly one lock acquisition, one access (or write) check, one twin
// creation (for RW views) and one DMM pin for the whole span; every
// subsequent At/Set/CopyTo/CopyFrom then runs against the mapped bytes
// directly, with no lock and no per-element check — the DSM analogue of
// TreadMarks-style direct page access.
//
// Lifetime rules (the same discipline the paper's statement-scope
// pinning imposes):
//
//   - Every View must be Released exactly once; Release unpins the
//     object and (for RW views) closes the mutation window.
//   - A View must not outlive a synchronization point that invalidates
//     the object (Barrier, or an Acquire that invalidates under the
//     home-based ablation): the mapped bytes it caches may be dropped.
//     Releasing an RW view after the critical section that acquired it
//     is fine — the diffs were computed at lock release from the bytes
//     already written.
//   - Views are not safe for concurrent use by multiple goroutines;
//     like Ptr, they belong to the node's single application goroutine.
//
// While an RW view is open this node defers serving object fetches and
// grant-diff reads for that object (the span is mid-mutation; a copy
// served from it would be torn), and defers applying incoming
// lock-scope flushes while any view — RW or read — is open. Because
// peers may be parked on those deferrals, an open RW view must make
// progress toward its Release: do NOT call blocking synchronization
// (Acquire, Barrier, or creating another view of an invalid object,
// which fetches) while holding an RW view. Releasing the lock that
// covers the view's writes is safe — that send does not block on
// peers. This is exactly the discipline of the paper's statement-scope
// pinning: open the spans a statement needs, access, release.

// View is a pinned window onto count elements of a shared object. The
// zero value is invalid; obtain Views from Ptr.View/Ptr.ViewRW (or
// Matrix.RowView/RowViewRW) and Release them when done.
//
// s aliases the span's mapped object bytes as []T (see alias), so At
// and Set are a released branch plus a bounds-checked slice access and
// inline at the call site. The struct must stay this small: callers
// that box a View in an interface copy it on every method call.
type View[T Elem] struct {
	s  []T
	st *viewState // shared by Slice aliases
}

// viewState is the state a View shares with its Slice-derived aliases:
// releasing any alias releases the span once.
type viewState struct {
	n        *Node
	c        *object.Control
	rw       bool
	released bool
}

// View returns a read-only pinned view of elements [i, i+count). It
// performs the span's single access check (fetching a clean copy if the
// local one is invalid) and pins the object in the DMM area until
// Release.
func (p Ptr[T]) View(i, count int) View[T] { return p.makeView(i, count, false) }

// ViewRW returns a read-write pinned view of elements [i, i+count). In
// addition to the access check and pin, it runs the span's single write
// check: the twin is created and the object is marked dirty (and
// attributed to the innermost held critical section) exactly as the
// first Set of a loop would, so per-word timestamp stamping and diff
// computation at lock release or barrier time see precisely what an
// element-wise Set loop over the span would have produced.
func (p Ptr[T]) ViewRW(i, count int) View[T] { return p.makeView(i, count, true) }

func (p Ptr[T]) makeView(i, count int, rw bool) View[T] {
	n := p.n
	n.mu.Lock()
	defer n.mu.Unlock()
	c, s := p.enter(i, count, rw)
	return View[T]{s: s, st: &viewState{n: n, c: c, rw: rw}}
}

// Release unpins the span and, for RW views, reopens fetch service for
// the object. Releasing twice (through any Slice alias) is a fatal
// runtime error, like an unbalanced unpin.
func (v View[T]) Release() {
	st := v.st
	n := st.n
	n.mu.Lock()
	defer n.mu.Unlock()
	if st.released {
		n.fatalf("lots: node %d: double Release of view on object %d", n.id, st.c.ID)
	}
	st.released = true
	n.viewExit(st.c, st.rw)
}

// Len returns the number of elements in the view.
func (v View[T]) Len() int { return len(v.s) }

// RW reports whether the view permits writes.
func (v View[T]) RW() bool { return v.st.rw }

// ObjectID exposes the underlying shared object ID (diagnostics).
func (v View[T]) ObjectID() uint64 { return uint64(v.st.c.ID) }

// At reads element k. No lock, no access check: the span was checked
// and pinned at creation.
func (v View[T]) At(k int) T {
	v.st.use()
	return v.s[k]
}

// Set writes element k. The view must have been created with ViewRW.
func (v View[T]) Set(k int, x T) {
	if st := v.st; st.released || !st.rw {
		st.misuse("Set")
	}
	v.s[k] = x
}

// Slice returns a sub-view of elements [lo, hi) sharing this view's pin
// and release state: releasing either the parent or the slice releases
// the whole span, once.
func (v View[T]) Slice(lo, hi int) View[T] {
	st := v.st
	st.use()
	if lo < 0 || hi < lo || hi > len(v.s) {
		st.n.fatalf("lots: node %d: view slice [%d,%d) of %d elements", st.n.id, lo, hi, len(v.s))
	}
	v.s = v.s[lo:hi:hi]
	return v
}

// CopyTo copies min(len(dst), v.Len()) elements out of the view and
// returns the number copied.
func (v View[T]) CopyTo(dst []T) int {
	v.st.use()
	return copy(dst, v.s)
}

// CopyFrom copies min(len(src), v.Len()) elements into the view and
// returns the number copied. The view must have been created with
// ViewRW.
func (v View[T]) CopyFrom(src []T) int {
	if st := v.st; st.released || !st.rw {
		st.misuse("CopyFrom")
	}
	return copy(v.s, src)
}

// use aborts on access through a released view — the one residual
// per-access branch, which costs a load and a predictable compare
// rather than a mutex and a table lookup.
func (st *viewState) use() {
	if st.released {
		st.misuse("access")
	}
}

// misuse aborts an access through a released view, or a write through
// a read-only one. It is kept out of line so that At and Set stay
// small enough to inline at the call site.
//
//go:noinline
func (st *viewState) misuse(op string) {
	n := st.n
	if st.released {
		n.fatalf("lots: node %d: %s through released view of object %d", n.id, op, st.c.ID)
	}
	n.fatalf("lots: node %d: %s through read-only view of object %d", n.id, op, st.c.ID)
}
