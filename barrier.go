package lots

import (
	"sort"
	"time"

	"repro/internal/diffing"
	"repro/internal/object"
	"repro/internal/stats/phases"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Barrier protocol (§3.4): LOTS uses a migrating-home, write-invalidate
// protocol for propagating object updates at a barrier. The rationale
// from the paper:
//
//  1. If a single process wrote an object before the barrier, no data
//     moves at all — the home simply migrates to the writer, and the
//     migration is piggybacked on the barrier exit message.
//  2. A home prevents an object's updates from being scattered: after
//     the barrier, a requester sends one message to the home.
//  3. After the barrier all updates are at homes, so other processes
//     invalidate their copies and free the memory, simplifying
//     bookkeeping.
//
// The fixed-home and update-broadcast variants exist for the ablation
// benchmarks.

// TBarrierDiff payloads carry {epoch u32, lockScope u8, objID u64,
// stamped diff}. lockScope=1 marks a home-based lock-release flush
// rather than an epoch reconciliation (only the latter counts against
// barrier expectations).

// barrierMgr is the global barrier state, hosted on node 0.
type barrierMgr struct {
	n int

	arrivedMsgs []wire.Message
	maxArrive   time.Duration // latest simulated arrival this epoch
	writers     map[object.ID]map[int]bool
	lockVers    map[uint16]uint32
	homes       map[object.ID]int // persistent across epochs

	rbMsgs      []wire.Message
	rbMaxArrive time.Duration
}

func newBarrierMgr(n int) *barrierMgr {
	return &barrierMgr{
		n:        n,
		writers:  make(map[object.ID]map[int]bool),
		lockVers: make(map[uint16]uint32),
		homes:    make(map[object.ID]int),
	}
}

// Barrier synchronizes all nodes and reconciles shared memory under the
// mixed coherence protocol.
func (n *Node) Barrier() {
	n.ctr.Barriers.Add(1)

	// Phase 1: arrival, carrying write notices and (for locks this
	// node manages) current lock versions.
	n.mu.Lock()
	epoch := n.epoch
	var writeIDs []object.ID
	n.table.ForEach(func(c *object.Control) {
		if c.WrittenInEpoch {
			writeIDs = append(writeIDs, c.ID)
		}
	})
	sort.Slice(writeIDs, func(i, j int) bool { return writeIDs[i] < writeIDs[j] })
	type lv struct {
		l uint16
		v uint32
	}
	var lockVers []lv
	for l, mg := range n.lmgr {
		lockVers = append(lockVers, lv{l, mg.ver})
	}
	sort.Slice(lockVers, func(i, j int) bool { return lockVers[i].l < lockVers[j].l })
	if len(n.held) != 0 {
		n.mu.Unlock()
		n.fatalf("lots: node %d: barrier reached while holding %d lock(s)", n.id, len(n.held))
	}
	n.mu.Unlock()

	var w wire.Buffer
	w.U32(epoch).Bool(false) // not run-only
	w.U32(uint32(len(writeIDs)))
	for _, id := range writeIDs {
		w.U64(uint64(id))
	}
	w.U32(uint32(len(lockVers)))
	for _, e := range lockVers {
		w.U16(e.l).U32(e.v)
	}
	arriveAt := time.Now()
	btc := n.tr.Begin(trace.BarrierEnter, epoch, 0, wire.TraceCtx{})
	reply := n.rpcT(0, wire.TBarrierArrive, w.Bytes(), btc)
	n.tr.End(btc)
	n.ph.Observe(epoch, phases.BarrierWait, time.Since(arriveAt))
	if reply.Type != wire.TBarrierExit {
		n.fatalf("lots: node %d: barrier reply %v", n.id, reply.Type)
	}
	n.tr.Instant(trace.BarrierExit, epoch, 0, reply.Trace)
	n.processBarrierExit(reply.Payload)
	// Barrier exit is the protocol's consistency point: every diff owed
	// to this home has been applied and versions are settled, so this is
	// where the incremental checkpoint cut is taken.
	n.checkpointAfterBarrier(epoch)
}

// RunBarrier is the event-only barrier of §3.6: it synchronizes
// execution without any memory consistency action. It suits programs
// that guard every access to the same object with the same lock across
// the barrier.
func (n *Node) RunBarrier() {
	n.ctr.Barriers.Add(1)
	n.mu.Lock()
	epoch := n.rbEpoch
	n.rbEpoch++
	n.mu.Unlock()
	var w wire.Buffer
	w.U32(epoch).Bool(true)
	arriveAt := time.Now()
	btc := n.tr.Begin(trace.BarrierEnter, epoch, 1, wire.TraceCtx{})
	reply := n.rpcT(0, wire.TBarrierArrive, w.Bytes(), btc)
	n.tr.End(btc)
	n.ph.Observe(epoch, phases.BarrierWait, time.Since(arriveAt))
	if reply.Type != wire.TBarrierExit {
		n.fatalf("lots: node %d: run-barrier reply %v", n.id, reply.Type)
	}
	n.tr.Instant(trace.BarrierExit, epoch, 1, reply.Trace)
}

// exitOrder is one "send your diff of obj to dest" instruction.
type exitOrder struct {
	obj  object.ID
	dest uint16
}

// serveBarrierArrive runs at the barrier manager (node 0).
func (n *Node) serveBarrierArrive(m wire.Message) {
	r := wire.NewReader(m.Payload)
	_ = r.U32() // epoch (informational; arrivals are inherently per-epoch)
	runOnly := r.Bool()
	bm := n.bmgr

	arr := transport.Arrival(n.prof, m)
	if runOnly {
		n.mu.Lock()
		bm.rbMsgs = append(bm.rbMsgs, m)
		if arr > bm.rbMaxArrive {
			bm.rbMaxArrive = arr
		}
		if len(bm.rbMsgs) < bm.n {
			n.mu.Unlock()
			return
		}
		msgs := bm.rbMsgs
		at := bm.rbMaxArrive
		bm.rbMsgs = nil
		bm.rbMaxArrive = 0
		n.mu.Unlock()
		selfLast(msgs, n.id)
		for _, am := range msgs {
			n.reply(am, wire.TBarrierExit, (&wire.Buffer{}).Bool(true).Bytes(), at)
		}
		return
	}

	nw := int(r.U32())
	writeIDs := make([]object.ID, 0, nw)
	for i := 0; i < nw; i++ {
		writeIDs = append(writeIDs, object.ID(r.U64()))
	}
	nl := int(r.U32())
	type lv struct {
		l uint16
		v uint32
	}
	lvs := make([]lv, 0, nl)
	for i := 0; i < nl; i++ {
		lvs = append(lvs, lv{r.U16(), r.U32()})
	}
	if r.Err() != nil {
		n.fatalf("lots: bad barrier arrival: %v", r.Err())
	}

	n.mu.Lock()
	if arr > bm.maxArrive {
		bm.maxArrive = arr
	}
	from := int(m.From)
	for _, id := range writeIDs {
		ws := bm.writers[id]
		if ws == nil {
			ws = make(map[int]bool)
			bm.writers[id] = ws
		}
		ws[from] = true
	}
	for _, e := range lvs {
		if e.v > bm.lockVers[e.l] {
			bm.lockVers[e.l] = e.v
		}
	}
	bm.arrivedMsgs = append(bm.arrivedMsgs, m)
	if len(bm.arrivedMsgs) < bm.n {
		n.mu.Unlock()
		return
	}

	// Everyone has arrived: decide homes, orders, and expectations.
	type objPlan struct {
		id      object.ID
		newHome int
		writers []int
	}
	objIDs := make([]object.ID, 0, len(bm.writers))
	for id := range bm.writers {
		objIDs = append(objIDs, id)
	}
	sort.Slice(objIDs, func(i, j int) bool { return objIDs[i] < objIDs[j] })

	plans := make([]objPlan, 0, len(objIDs))
	orders := make([][]exitOrder, bm.n)        // per sender node
	expects := make([]map[object.ID]int, bm.n) // per receiver node
	for i := range expects {
		expects[i] = make(map[object.ID]int)
	}
	mode := n.cfg.Protocol.Barrier
	for _, id := range objIDs {
		ws := bm.writers[id]
		writers := make([]int, 0, len(ws))
		for wtr := range ws {
			writers = append(writers, wtr)
		}
		sort.Ints(writers)
		home, ok := bm.homes[id]
		if !ok {
			home = int(uint64(id) % uint64(bm.n))
		}
		newHome := home
		switch mode {
		case BarrierMigratingHome:
			if len(writers) == 1 {
				// Sole writer: migrate the home; no data transfer.
				if writers[0] != home {
					newHome = writers[0]
					n.ctr.HomeMigrates.Add(1)
				} else {
					newHome = home
				}
			} else {
				for _, wtr := range writers {
					if wtr != home {
						orders[wtr] = append(orders[wtr], exitOrder{obj: id, dest: uint16(home)})
						expects[home][id]++
					}
				}
			}
		case BarrierFixedHome:
			for _, wtr := range writers {
				if wtr != home {
					orders[wtr] = append(orders[wtr], exitOrder{obj: id, dest: uint16(home)})
					expects[home][id]++
				}
			}
		case BarrierUpdateBroadcast:
			for _, wtr := range writers {
				for v := 0; v < bm.n; v++ {
					if v == wtr {
						continue
					}
					orders[wtr] = append(orders[wtr], exitOrder{obj: id, dest: uint16(v)})
					expects[v][id]++
				}
			}
		}
		bm.homes[id] = newHome
		plans = append(plans, objPlan{id: id, newHome: newHome, writers: writers})
	}

	lockList := make([]lv, 0, len(bm.lockVers))
	for l, v := range bm.lockVers {
		lockList = append(lockList, lv{l, v})
	}
	sort.Slice(lockList, func(i, j int) bool { return lockList[i].l < lockList[j].l })

	msgs := bm.arrivedMsgs
	exitAt := bm.maxArrive
	bm.arrivedMsgs = nil
	bm.maxArrive = 0
	bm.writers = make(map[object.ID]map[int]bool)
	n.mu.Unlock()

	selfLast(msgs, n.id)
	for _, am := range msgs {
		v := int(am.From)
		var w wire.Buffer
		w.Bool(false) // not run-only
		w.U32(uint32(len(plans)))
		for _, p := range plans {
			w.U64(uint64(p.id)).U16(uint16(p.newHome))
		}
		w.U32(uint32(len(orders[v])))
		for _, o := range orders[v] {
			w.U64(uint64(o.obj)).U16(o.dest)
		}
		exIDs := make([]object.ID, 0, len(expects[v]))
		for id := range expects[v] {
			exIDs = append(exIDs, id)
		}
		sort.Slice(exIDs, func(i, j int) bool { return exIDs[i] < exIDs[j] })
		w.U32(uint32(len(exIDs)))
		for _, id := range exIDs {
			w.U64(uint64(id)).U32(uint32(expects[v][id]))
		}
		w.U32(uint32(len(lockList)))
		for _, e := range lockList {
			w.U16(e.l).U32(e.v)
		}
		n.reply(am, wire.TBarrierExit, w.Bytes(), exitAt)
	}
}

// selfLast moves the manager's own arrival to the end of msgs. Its
// exit reply releases the manager's rank, which may then flush and
// exit its process; every peer's exit must already be handed to the
// transport by then, or Flush cannot see it and the peer waits forever.
func selfLast(msgs []wire.Message, self int) {
	for i, m := range msgs {
		if int(m.From) == self {
			copy(msgs[i:], msgs[i+1:])
			msgs[len(msgs)-1] = m
			return
		}
	}
}

// barrierPlan is one home decision from the barrier manager: object id
// is homed at home for the next epoch.
type barrierPlan struct {
	id   object.ID
	home int
}

// processBarrierExit applies the manager's decisions on this node:
// register expected diffs, send ordered diffs, revalidate leased
// copies with their homes (Config.Leases), wait for incoming diffs,
// then invalidate the non-home copies whose leases did not hold and
// reset epoch bookkeeping.
func (n *Node) processBarrierExit(payload []byte) {
	r := wire.NewReader(payload)
	if r.Bool() { // run-only exit reached a memory barrier: impossible
		n.fatalf("lots: node %d: run-only exit for full barrier", n.id)
	}
	np := int(r.U32())
	plans := make([]barrierPlan, 0, np)
	for i := 0; i < np; i++ {
		plans = append(plans, barrierPlan{object.ID(r.U64()), int(r.U16())})
	}
	no := int(r.U32())
	orders := make([]exitOrder, 0, no)
	for i := 0; i < no; i++ {
		orders = append(orders, exitOrder{object.ID(r.U64()), r.U16()})
	}
	ne := int(r.U32())
	type expectEntry struct {
		id  object.ID
		cnt int
	}
	expects := make([]expectEntry, 0, ne)
	for i := 0; i < ne; i++ {
		expects = append(expects, expectEntry{object.ID(r.U64()), int(r.U32())})
	}
	nl := int(r.U32())
	type lv struct {
		l uint16
		v uint32
	}
	lvs := make([]lv, 0, nl)
	for i := 0; i < nl; i++ {
		lvs = append(lvs, lv{r.U16(), r.U32()})
	}
	if r.Err() != nil {
		n.fatalf("lots: node %d: bad barrier exit: %v", n.id, r.Err())
	}

	// Register expectations, then build diff payloads from our twins.
	n.mu.Lock()
	for _, e := range expects {
		n.pendingDiffs[e.id] += e.cnt
	}
	epoch := n.epoch
	if n.trackVer() {
		// Settle this home's own epoch writes into each surviving
		// object's data version BEFORE revalidation service opens:
		// otherwise a LEASEOK could vouch for a version the home's own
		// writes were about to bump. Incoming diffs bump at apply time
		// and are gated separately via pendingDiffs.
		for _, p := range plans {
			if p.home != n.id {
				continue
			}
			c := n.lookup(p.id)
			n.bumpVerOnSelfWritesLocked(c)
			c.Lease = false // a home holds the master copy, not a lease
		}
	}
	// From here this node may answer epoch-`epoch` lease revalidations
	// (its expectations are registered and its own bumps are settled).
	n.reconEpoch = epoch + 1
	n.cond.Broadcast()
	type diffJob struct {
		dest    int
		payload []byte
		reqID   uint64 // filled by the coalesced fan-out path
	}
	jobs := make([]diffJob, 0, len(orders))
	for _, o := range orders {
		c := n.lookup(o.obj)
		if c.Twin == nil {
			n.mu.Unlock()
			n.fatalf("lots: node %d: ordered to diff object %d without a twin", n.id, o.obj)
		}
		data := n.objData(c)
		// Stamped diffs: each run carries the lock version under which
		// its words were written, so the home merges concurrent
		// writers' diffs newest-wins instead of arrival-order-wins.
		d := diffing.ComputeStamped(data, c.Twin, c.Stamps, epoch)
		n.clock.Advance(n.prof.WordsCost(c.Words()))
		n.ctr.DiffsMade.Add(1)
		n.ctr.DiffBytes.Add(int64(d.Bytes()))
		var w wire.Buffer
		w.U32(epoch).U8(0).U64(uint64(o.obj))
		d.Encode(&w)
		jobs = append(jobs, diffJob{dest: int(o.dest), payload: w.Bytes()})
	}
	n.mu.Unlock()

	// Ship the diffs. On a coalescing endpoint the whole fan-out is
	// deferred first — per-peer runs of diffs pack into single batched
	// datagrams/writes — then flushed once and awaited; the serial
	// request/reply loop below is the classic path. Both orders are
	// equivalent: acks are awaited with a commutative clock merge, and
	// each home applies diffs independently.
	if bs, ok := n.ep.(batchSender); ok && len(jobs) > 1 {
		acks := make([]chan wire.Message, len(jobs))
		n.pending.Lock()
		for i := range jobs {
			id := n.newReqID()
			acks[i] = make(chan wire.Message, 1)
			n.pending.m[id] = acks[i]
			jobs[i].reqID = id
		}
		n.pending.Unlock()
		for _, j := range jobs {
			tc := n.tr.Instant(trace.DiffSend, epoch, uint64(j.dest), wire.TraceCtx{})
			n.deferSendT(bs, j.dest, wire.TBarrierDiff, j.reqID, j.payload, tc)
		}
		if err := bs.Flush(); err != nil && !n.closed.Load() {
			n.fatalf("lots: node %d: flushing barrier diffs: %v", n.id, err)
		}
		for i, ch := range acks {
			reply := <-ch
			if reply.Type == wire.TInvalid {
				n.fatalf("lots: node %d: barrier diff to node %d: endpoint closed", n.id, jobs[i].dest)
			}
			n.clock.MergeTo(transport.Arrival(n.prof, reply))
			if reply.Type != wire.TBarrierDiffAck {
				n.fatalf("lots: node %d: barrier diff rejected: %v", n.id, reply.Type)
			}
		}
	} else {
		for _, j := range jobs {
			tc := n.tr.Instant(trace.DiffSend, epoch, uint64(j.dest), wire.TraceCtx{})
			if reply := n.rpcT(j.dest, wire.TBarrierDiff, j.payload, tc); reply.Type != wire.TBarrierDiffAck {
				n.fatalf("lots: node %d: barrier diff rejected: %v", n.id, reply.Type)
			}
		}
	}

	// Revalidate leased copies with their (new) homes now that our own
	// diffs are on their way: each home answers once its side of the
	// reconciliation has settled the queried object, so a LEASEOK means
	// "your bytes are still mine for the next epoch". Must precede the
	// invalidation pass below, which it exempts copies from.
	leaseKept := n.leaseRevalidate(epoch, plans)

	// Wait for every diff we are owed (as a home, or as a broadcast
	// receiver) to be applied.
	n.mu.Lock()
	for !n.pendingDrainedLocked() {
		n.cond.Wait()
	}

	// Apply home decisions and invalidate non-home copies — except
	// those whose lease held: they stay Clean, fetch-free.
	broadcast := n.cfg.Protocol.Barrier == BarrierUpdateBroadcast
	for _, p := range plans {
		c := n.lookup(p.id)
		c.Home = p.home
		if !broadcast && p.home != n.id {
			if !leaseKept[p.id] {
				n.invalidateLocked(c)
			}
		} else if c.State != object.Invalid {
			c.State = object.Clean
		}
		c.Twin = nil
		c.WrittenInEpoch = false
		c.ScopeLocks = nil
		// Lock knowledge is synchronized below, so per-word stamps of
		// reconciled objects restart clean; this also keeps the next
		// epoch's stamped barrier diffs comparable.
		c.Stamps = nil
		// Deferred lock-scope updates are all pre-barrier (locks cannot
		// span a barrier) and the reconciliation supersedes them; applying
		// them over a post-barrier fetch would resurrect stale values.
		c.PendingDiffs = nil
	}
	// Synchronize lock knowledge: after a barrier every node has seen
	// every update, so grant diffs restart empty (§3.5 bookkeeping).
	for _, e := range lvs {
		if e.v > n.knownVer[e.l] {
			n.knownVer[e.l] = e.v
		}
	}
	for id, ch := range n.chains {
		ch.Truncate(n.knownVer[n.lockFor(id)])
		if ch.Len() == 0 {
			delete(n.chains, id)
		}
	}
	n.epoch++
	n.cond.Broadcast()
	n.mu.Unlock()
}

// lockFor returns an arbitrary lock known to scope id (chains are
// per-object; truncation just needs a consistent version floor).
func (n *Node) lockFor(id object.ID) uint16 {
	for l, s := range n.scope {
		if s[id] {
			return l
		}
	}
	return 0
}

// pendingDrainedLocked reports whether all expected barrier diffs have
// been applied. Caller holds n.mu.
func (n *Node) pendingDrainedLocked() bool {
	for id, cnt := range n.pendingDiffs {
		if cnt == 0 {
			delete(n.pendingDiffs, id)
			continue
		}
		if cnt > 0 {
			return false
		}
	}
	return true
}

// serveBarrierDiff applies an incoming diff: either an epoch
// reconciliation to this home (counted against expectations) or a
// home-based lock-scope flush.
func (n *Node) serveBarrierDiff(m wire.Message) {
	r := wire.NewReader(m.Payload)
	epoch := r.U32()
	applyAt := time.Now()
	defer func() { n.ph.Observe(epoch, phases.DiffApply, time.Since(applyAt)) }()
	dtc := n.tr.Begin(trace.DiffApply, epoch, uint64(m.From), m.Trace)
	defer n.tr.End(dtc)
	lockScope := r.U8() == 1
	id := object.ID(r.U64())
	d, err := diffing.DecodeStampedDiff(r)
	if err != nil {
		n.fatalf("lots: node %d: bad barrier diff: %v", n.id, err)
	}
	lc := n.svcClock(m)
	n.mu.Lock()
	c := n.lookup(id)
	// Epoch reconciliations arrive while every node is inside the
	// barrier (no views open, per the release-before-barrier rule), but
	// a home-based lock-scope flush can land mid-epoch: never write
	// over a span that is mid-mutation under an open RW view, and never
	// write under a lock-free reader's open read view either.
	for c.RWViews > 0 || c.ROViews > 0 {
		n.cond.Wait()
	}
	restore := n.useClock(lc)
	data := n.objData(c)
	// Lease versioning: bump only when the application actually moves
	// bytes. An incoming diff whose words all lose the newest-wins
	// merge (or re-assert values already present) leaves the copy
	// byte-identical, and leased readers must be allowed to keep it.
	var shadow [][]byte
	if n.trackVer() {
		shadow = stampedRunShadow(data, d)
	}
	if _, err := diffing.ApplyStamped(data, c.EnsureStamps(), d, epoch); err != nil {
		restore()
		n.mu.Unlock()
		n.fatalf("lots: node %d: applying barrier diff to %d: %v", n.id, id, err)
	}
	if shadow != nil && stampedRunsChanged(data, d, shadow) {
		c.Ver++
	}
	if n.mapper != nil {
		n.mapper.MarkDirty(c)
	}
	lc.Advance(n.prof.WordsCost(d.Bytes() / object.WordSize))
	restore()
	if int64(lc.Now()) > c.ReconcileNS {
		c.ReconcileNS = int64(lc.Now())
	}
	// The application cannot leave its barrier before this diff has
	// been applied, so its timeline merges forward here.
	n.clock.MergeTo(lc.Now())
	if !lockScope {
		n.pendingDiffs[id]--
		n.cond.Broadcast()
	}
	n.mu.Unlock()
	n.reply(m, wire.TBarrierDiffAck, nil, lc.Now())
}

// Epoch returns the node's barrier epoch (testing/diagnostics).
func (n *Node) Epoch() uint32 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch
}
