package lots

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/object"
	"repro/internal/wire"
)

// counterWorkload drives the migratory counter used to validate every
// protocol variant end to end.
func counterWorkload(t *testing.T, cfg Config, rounds int) *Cluster {
	t.Helper()
	c := mustCluster(t, cfg)
	err := c.Run(func(n *Node) {
		arr := Alloc[int32](n, 16)
		n.Barrier()
		for r := 0; r < rounds; r++ {
			n.Acquire(2)
			for i := 0; i < 16; i++ {
				arr.Set(i, arr.Get(i)+1)
			}
			n.Release(2)
		}
		n.Barrier()
		want := int32(rounds * n.N())
		for i := 0; i < 16; i++ {
			if got := arr.Get(i); got != want {
				panic(fmt.Sprintf("node %d: arr[%d] = %d, want %d", n.ID(), i, got, want))
			}
		}
		n.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestProtocolVariantsAllCorrect(t *testing.T) {
	// Every combination of the ablation knobs must compute the same
	// result; only costs differ.
	for _, lock := range []LockMode{LockHomeless, LockHomeBased} {
		for _, barrier := range []BarrierMode{BarrierMigratingHome, BarrierFixedHome, BarrierUpdateBroadcast} {
			for _, diff := range []DiffMode{DiffPerFieldStamps, DiffAccumulate} {
				name := fmt.Sprintf("lock=%d/barrier=%d/diff=%d", lock, barrier, diff)
				t.Run(name, func(t *testing.T) {
					cfg := DefaultConfig(3)
					cfg.Protocol = Protocol{Lock: lock, Barrier: barrier, Diff: diff}
					counterWorkload(t, cfg, 6)
				})
			}
		}
	}
}

// TestBarrierManagerExitsLast pins the reply order of the barrier
// manager: its own exit goes last, so by the time its rank can leave
// the barrier (and perhaps flush and exit the process) every peer's
// exit is already in the transport. The peers keep arrival order.
func TestBarrierManagerExitsLast(t *testing.T) {
	msgs := []wire.Message{{From: 2}, {From: 0}, {From: 3}, {From: 1}}
	selfLast(msgs, 0)
	var got []uint16
	for _, m := range msgs {
		got = append(got, m.From)
	}
	if fmt.Sprint(got) != "[2 3 1 0]" {
		t.Fatalf("reply order %v, want [2 3 1 0]", got)
	}
}

func TestHomeBasedLockInvalidates(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Protocol.Lock = LockHomeBased
	c := counterWorkload(t, cfg, 8)
	if c.Total().Invalidations == 0 {
		t.Error("home-based locks must invalidate at grants")
	}
	if c.Total().ObjFetches == 0 {
		t.Error("home-based locks must re-fetch from the home")
	}
}

func TestFixedHomeNeverMigrates(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.Protocol.Barrier = BarrierFixedHome
	c := mustCluster(t, cfg)
	err := c.Run(func(n *Node) {
		a := Alloc[int32](n, 32) // object 1: fixed home = node 1
		if n.ID() == 2 {         // sole writer != home
			a.Set(0, 5)
		}
		n.Barrier()
		if a.Get(0) != 5 {
			panic("value lost")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Total().HomeMigrates != 0 {
		t.Error("fixed-home mode migrated a home")
	}
	// A sole writer still had to ship a diff (the cost migrating-home
	// avoids).
	if c.Total().DiffsMade == 0 {
		t.Error("fixed-home sole writer should send a diff")
	}
}

func TestBroadcastBarrierKeepsCopiesValid(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.Protocol.Barrier = BarrierUpdateBroadcast
	c := mustCluster(t, cfg)
	err := c.Run(func(n *Node) {
		a := Alloc[int32](n, 32)
		if n.ID() == 0 {
			a.Set(3, 7)
		}
		n.Barrier()
		if a.Get(3) != 7 {
			panic("broadcast update lost")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	total := c.Total()
	if total.Invalidations != 0 {
		t.Error("update-broadcast must not invalidate")
	}
	if total.ObjFetches != 0 {
		t.Error("copies stayed valid; no fetches expected")
	}
	if total.DiffsMade < 2 {
		t.Error("writer should broadcast to every peer")
	}
}

func TestPendingScopeDiffAppliedAfterFetch(t *testing.T) {
	// A grant can carry updates for an object whose local copy is
	// invalid (post-barrier). The update must be deferred and applied
	// on top of the copy fetched from the home — dropping either the
	// fetch or the diff gives a wrong value.
	c := mustCluster(t, DefaultConfig(2))
	err := c.Run(func(n *Node) {
		x := Alloc[int32](n, 8)
		// Epoch 0: node 1 writes x, so after the barrier the home
		// migrates to node 1 and node 0's copy is INVALID.
		if n.ID() == 1 {
			x.Set(0, 10)
			x.Set(1, 11)
		}
		n.Barrier()
		// Node 1 updates x under a lock; node 0 then acquires the same
		// lock WITHOUT having touched x since the barrier: its copy is
		// still invalid, so the grant diff must queue as pending.
		if n.ID() == 1 {
			n.Acquire(4)
			x.Set(0, 20)
			n.Release(4)
		}
		n.RunBarrier() // order acquire after release (event only)
		if n.ID() == 0 {
			n.Acquire(4)
			// First touch since the barrier: fetch from home (which has
			// 10,11 reconciled plus node 1's CS write 20 — note the home
			// IS node 1 here, so the fetch already includes 20; read
			// x[1] to confirm base, x[0] for the scope value).
			if got := x.Get(0); got != 20 {
				panic(fmt.Sprintf("node 0 sees x[0] = %d, want 20", got))
			}
			if got := x.Get(1); got != 11 {
				panic(fmt.Sprintf("node 0 sees x[1] = %d, want 11", got))
			}
			n.Release(4)
		}
		n.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPendingDiffToThirdParty(t *testing.T) {
	// Three nodes: node 1 is the sole epoch-0 writer (becomes home).
	// Node 2 then updates under a lock and releases; node 0 acquires
	// the lock while its copy is invalid — the grant diff from node 2
	// must be deferred and applied over the copy fetched from node 1,
	// which does NOT yet include node 2's critical-section write.
	c := mustCluster(t, DefaultConfig(3))
	err := c.Run(func(n *Node) {
		x := Alloc[int32](n, 8)
		if n.ID() == 1 {
			for i := 0; i < 8; i++ {
				x.Set(i, int32(100+i))
			}
		}
		n.Barrier() // home -> node 1; nodes 0,2 invalid
		switch n.ID() {
		case 2:
			n.Acquire(4)
			x.Set(0, 999) // fetched from home 1, then modified in CS
			n.Release(4)
			n.RunBarrier()
		case 0:
			n.RunBarrier() // wait for node 2's release
			n.Acquire(4)
			// x invalid here; grant carries node 2's diff (999 at [0]);
			// fetch from home (node 1) returns 100..107; the pending
			// diff must overlay 999.
			if got := x.Get(0); got != 999 {
				panic(fmt.Sprintf("node 0 sees x[0] = %d, want 999 (pending diff lost)", got))
			}
			if got := x.Get(7); got != 107 {
				panic(fmt.Sprintf("node 0 sees x[7] = %d, want 107 (fetch base lost)", got))
			}
			n.Release(4)
		case 1:
			n.RunBarrier()
		}
		n.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRandomizedMixedWorkloadMatchesReference(t *testing.T) {
	// Property test: a random sequence of lock-guarded increments and
	// barrier-phased writes over several objects must match a
	// sequential reference execution.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const (
			nodes  = 3
			objs   = 4
			size   = 32
			rounds = 4
			perCS  = 6
		)
		// Reference model: lock-guarded adds commute, barrier writes are
		// partitioned per node, so expected values are computable.
		type op struct {
			obj, idx int
			add      int32
		}
		plans := make([][]op, nodes)
		for nd := 0; nd < nodes; nd++ {
			for r := 0; r < rounds; r++ {
				for k := 0; k < perCS; k++ {
					plans[nd] = append(plans[nd], op{
						obj: rng.Intn(objs),
						idx: rng.Intn(size),
						add: int32(1 + rng.Intn(5)),
					})
				}
			}
		}
		want := make([][]int32, objs)
		for o := range want {
			want[o] = make([]int32, size)
		}
		for nd := 0; nd < nodes; nd++ {
			for _, p := range plans[nd] {
				want[p.obj][p.idx] += p.add
			}
		}

		cfg := DefaultConfig(nodes)
		cfg.DMMSize = 8 << 10 // force swapping during the protocol churn
		c, err := NewCluster(cfg)
		if err != nil {
			t.Log(err)
			return false
		}
		defer c.Close()
		err = c.Run(func(n *Node) {
			ptrs := make([]Ptr[int32], objs)
			for o := range ptrs {
				ptrs[o] = Alloc[int32](n, size)
			}
			n.Barrier()
			plan := plans[n.ID()]
			for r := 0; r < rounds; r++ {
				n.Acquire(1)
				for _, p := range plan[r*perCS : (r+1)*perCS] {
					ptrs[p.obj].Set(p.idx, ptrs[p.obj].Get(p.idx)+p.add)
				}
				n.Release(1)
				if r%2 == 1 {
					n.Barrier()
				}
			}
			n.Barrier()
			for o := range ptrs {
				for i := 0; i < size; i++ {
					if got := ptrs[o].Get(i); got != want[o][i] {
						panic(fmt.Sprintf("node %d: obj %d[%d] = %d, want %d",
							n.ID(), o, i, got, want[o][i]))
					}
				}
			}
		})
		if err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

func TestStateStringsAndHandles(t *testing.T) {
	c := mustCluster(t, DefaultConfig(1))
	err := c.Run(func(n *Node) {
		a := Alloc[int32](n, 4)
		if a.Nil() {
			panic("allocated pointer reports Nil")
		}
		var zero Ptr[int32]
		if !zero.Nil() {
			panic("zero pointer should be Nil")
		}
		if a.ObjectID() == 0 {
			panic("ObjectID")
		}
		if n.Stats() == nil {
			panic("Stats")
		}
		if n.Epoch() != 0 {
			panic("fresh epoch")
		}
		n.Barrier()
		if n.Epoch() != 1 {
			panic("epoch after barrier")
		}
		if n.LockVersion(3) != 0 {
			panic("unused lock version")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Nodes() != 1 || c.Node(0) == nil {
		t.Error("cluster accessors")
	}
	if c.Config().Nodes != 1 {
		t.Error("Config accessor")
	}
	c.ResetClocks()
	if c.NodeTime(0) != 0 {
		t.Error("ResetClocks")
	}
}

func TestControlStateAfterBarrier(t *testing.T) {
	// White-box: after a barrier, the sole writer is the home with a
	// clean copy; other nodes are invalid; twins and epoch flags clear.
	c := mustCluster(t, DefaultConfig(2))
	err := c.Run(func(n *Node) {
		a := Alloc[int32](n, 16)
		if n.ID() == 0 {
			a.Set(0, 1)
		}
		n.Barrier()
		n.mu.Lock()
		ctl := n.lookup(object.ID(a.ObjectID()))
		defer n.mu.Unlock()
		if ctl.Twin != nil || ctl.WrittenInEpoch {
			panic("epoch bookkeeping not cleared")
		}
		if ctl.Home != 0 {
			panic("home should have migrated to writer 0")
		}
		if n.ID() == 0 && ctl.State == object.Invalid {
			panic("home invalidated its own copy")
		}
		if n.ID() == 1 && ctl.State != object.Invalid {
			panic("non-home copy not invalidated")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
