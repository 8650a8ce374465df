// Package stats provides per-node event counters and the simulated-time
// clocks used by the reproduction's benchmark harness.
//
// The original LOTS evaluation measured wall-clock execution time on a
// 16-node cluster. This reproduction runs all nodes inside one process,
// so wall-clock time no longer reflects cluster behaviour. Instead, every
// protocol-relevant event (message, byte, disk transfer, access check,
// swap, diff) is counted per node, and a deterministic simulated clock is
// advanced using a platform cost profile. Simulated clocks merge at every
// message receipt and synchronization point, so causality matches the
// real system's critical path.
package stats

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counters aggregates protocol events for one node. All fields are
// manipulated atomically so that the node's application goroutine and its
// message-service goroutine can update them concurrently.
type Counters struct {
	MsgsSent      atomic.Int64 // logical protocol messages sent
	MsgsRecv      atomic.Int64
	BatchesSent   atomic.Int64 // coalesced TBatch envelopes flushed
	BatchedMsgs   atomic.Int64 // protocol messages carried inside batches
	FragsSent     atomic.Int64 // wire fragments after 64 KB splitting
	FragsRetrans  atomic.Int64 // fragments retransmitted (timeout + fast)
	FastRetrans   atomic.Int64 // dup-ack fast retransmissions (subset of FragsRetrans)
	RTTSamples    atomic.Int64 // RTT measurements fed to the adaptive RTO
	BytesSent     atomic.Int64
	BytesRecv     atomic.Int64
	AccessChecks  atomic.Int64 // Ptr access-check invocations (§4.2)
	Views         atomic.Int64 // pinned spans opened (View API + legacy span accessors)
	MapIns        atomic.Int64 // objects mapped into the DMM area
	SwapOuts      atomic.Int64 // objects evicted from the DMM area
	DiskReads     atomic.Int64 // backing-store read operations
	DiskWrites    atomic.Int64
	DiskReadBytes atomic.Int64
	DiskWriteByte atomic.Int64
	DiffsMade     atomic.Int64
	DiffBytes     atomic.Int64
	ObjFetches    atomic.Int64 // whole-object (or page) fetches
	LockAcquires  atomic.Int64
	Barriers      atomic.Int64
	HomeMigrates  atomic.Int64
	Invalidations atomic.Int64
	LeasesGranted atomic.Int64 // read leases handed out with fetch replies (home side)
	LeaseHits     atomic.Int64 // leased copies kept valid across a barrier (zero data transfer)
	LeaseDemotes  atomic.Int64 // revalidations that fell back to invalidate-and-fetch
	Ckpts         atomic.Int64 // barrier-time checkpoints written
	CkptBytes     atomic.Int64 // object bytes serialized into checkpoints
	CkptSkipped   atomic.Int64 // checkpoint segments skipped as unchanged (zero bytes)
	Rehomes       atomic.Int64 // owners restored from a peer's checkpoint store
	PageFaults    atomic.Int64 // JIAJIA baseline: simulated SIGSEGV faults
	FalseShares   atomic.Int64 // JIAJIA baseline: write faults on pages holding >1 object
	PinDenials    atomic.Int64 // evictions skipped because the victim was pinned
	// New counters go last: moving the per-access counters above onto
	// other cache lines measurably slows the out-of-core access path.
	AcksSent        atomic.Int64 // standalone UDP ack datagrams written
	AcksPiggybacked atomic.Int64 // owed UDP acks carried by a data frame instead
}

// Snapshot is a plain-value copy of Counters, safe to compare and print.
type Snapshot struct {
	MsgsSent, MsgsRecv, FragsSent     int64
	BatchesSent, BatchedMsgs          int64
	FragsRetrans, FastRetrans         int64
	RTTSamples                        int64
	AcksSent, AcksPiggybacked         int64
	BytesSent, BytesRecv              int64
	AccessChecks, Views               int64
	MapIns, SwapOuts                  int64
	DiskReads, DiskWrites             int64
	DiskReadBytes, DiskWriteBytes     int64
	DiffsMade, DiffBytes, ObjFetches  int64
	LockAcquires, Barriers            int64
	HomeMigrates, Invalidations       int64
	LeasesGranted                     int64
	LeaseHits, LeaseDemotes           int64
	Ckpts, CkptBytes                  int64
	CkptSkipped, Rehomes              int64
	PageFaults, FalseShares, PinDenls int64
}

// Snap returns a point-in-time copy of the counters.
func (c *Counters) Snap() Snapshot {
	return Snapshot{
		MsgsSent:        c.MsgsSent.Load(),
		MsgsRecv:        c.MsgsRecv.Load(),
		BatchesSent:     c.BatchesSent.Load(),
		BatchedMsgs:     c.BatchedMsgs.Load(),
		FragsSent:       c.FragsSent.Load(),
		FragsRetrans:    c.FragsRetrans.Load(),
		FastRetrans:     c.FastRetrans.Load(),
		RTTSamples:      c.RTTSamples.Load(),
		AcksSent:        c.AcksSent.Load(),
		AcksPiggybacked: c.AcksPiggybacked.Load(),
		BytesSent:       c.BytesSent.Load(),
		BytesRecv:       c.BytesRecv.Load(),
		AccessChecks:    c.AccessChecks.Load(),
		Views:           c.Views.Load(),
		MapIns:          c.MapIns.Load(),
		SwapOuts:        c.SwapOuts.Load(),
		DiskReads:       c.DiskReads.Load(),
		DiskWrites:      c.DiskWrites.Load(),
		DiskReadBytes:   c.DiskReadBytes.Load(),
		DiskWriteBytes:  c.DiskWriteByte.Load(),
		DiffsMade:       c.DiffsMade.Load(),
		DiffBytes:       c.DiffBytes.Load(),
		ObjFetches:      c.ObjFetches.Load(),
		LockAcquires:    c.LockAcquires.Load(),
		Barriers:        c.Barriers.Load(),
		HomeMigrates:    c.HomeMigrates.Load(),
		Invalidations:   c.Invalidations.Load(),
		LeasesGranted:   c.LeasesGranted.Load(),
		LeaseHits:       c.LeaseHits.Load(),
		LeaseDemotes:    c.LeaseDemotes.Load(),
		Ckpts:           c.Ckpts.Load(),
		CkptBytes:       c.CkptBytes.Load(),
		CkptSkipped:     c.CkptSkipped.Load(),
		Rehomes:         c.Rehomes.Load(),
		PageFaults:      c.PageFaults.Load(),
		FalseShares:     c.FalseShares.Load(),
		PinDenls:        c.PinDenials.Load(),
	}
}

// Sub returns s - o field-wise, for measuring a region of execution.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	return Snapshot{
		MsgsSent:        s.MsgsSent - o.MsgsSent,
		MsgsRecv:        s.MsgsRecv - o.MsgsRecv,
		BatchesSent:     s.BatchesSent - o.BatchesSent,
		BatchedMsgs:     s.BatchedMsgs - o.BatchedMsgs,
		FragsSent:       s.FragsSent - o.FragsSent,
		FragsRetrans:    s.FragsRetrans - o.FragsRetrans,
		FastRetrans:     s.FastRetrans - o.FastRetrans,
		RTTSamples:      s.RTTSamples - o.RTTSamples,
		AcksSent:        s.AcksSent - o.AcksSent,
		AcksPiggybacked: s.AcksPiggybacked - o.AcksPiggybacked,
		BytesSent:       s.BytesSent - o.BytesSent,
		BytesRecv:       s.BytesRecv - o.BytesRecv,
		AccessChecks:    s.AccessChecks - o.AccessChecks,
		Views:           s.Views - o.Views,
		MapIns:          s.MapIns - o.MapIns,
		SwapOuts:        s.SwapOuts - o.SwapOuts,
		DiskReads:       s.DiskReads - o.DiskReads,
		DiskWrites:      s.DiskWrites - o.DiskWrites,
		DiskReadBytes:   s.DiskReadBytes - o.DiskReadBytes,
		DiskWriteBytes:  s.DiskWriteBytes - o.DiskWriteBytes,
		DiffsMade:       s.DiffsMade - o.DiffsMade,
		DiffBytes:       s.DiffBytes - o.DiffBytes,
		ObjFetches:      s.ObjFetches - o.ObjFetches,
		LockAcquires:    s.LockAcquires - o.LockAcquires,
		Barriers:        s.Barriers - o.Barriers,
		HomeMigrates:    s.HomeMigrates - o.HomeMigrates,
		Invalidations:   s.Invalidations - o.Invalidations,
		LeasesGranted:   s.LeasesGranted - o.LeasesGranted,
		LeaseHits:       s.LeaseHits - o.LeaseHits,
		LeaseDemotes:    s.LeaseDemotes - o.LeaseDemotes,
		Ckpts:           s.Ckpts - o.Ckpts,
		CkptBytes:       s.CkptBytes - o.CkptBytes,
		CkptSkipped:     s.CkptSkipped - o.CkptSkipped,
		Rehomes:         s.Rehomes - o.Rehomes,
		PageFaults:      s.PageFaults - o.PageFaults,
		FalseShares:     s.FalseShares - o.FalseShares,
		PinDenls:        s.PinDenls - o.PinDenls,
	}
}

// Add returns s + o field-wise, for aggregating across nodes.
func (s Snapshot) Add(o Snapshot) Snapshot {
	return s.Sub(Snapshot{}.Sub(o))
}

// String renders the non-zero counters compactly, one per line.
func (s Snapshot) String() string {
	var b strings.Builder
	type kv struct {
		k string
		v int64
	}
	rows := []kv{
		{"msgs_sent", s.MsgsSent}, {"msgs_recv", s.MsgsRecv},
		{"batches_sent", s.BatchesSent}, {"batched_msgs", s.BatchedMsgs},
		{"frags_sent", s.FragsSent},
		{"frags_retrans", s.FragsRetrans}, {"fast_retrans", s.FastRetrans},
		{"rtt_samples", s.RTTSamples},
		{"acks_sent", s.AcksSent}, {"acks_piggybacked", s.AcksPiggybacked},
		{"bytes_sent", s.BytesSent}, {"bytes_recv", s.BytesRecv},
		{"access_checks", s.AccessChecks}, {"views", s.Views},
		{"map_ins", s.MapIns}, {"swap_outs", s.SwapOuts},
		{"disk_reads", s.DiskReads}, {"disk_writes", s.DiskWrites},
		{"disk_read_bytes", s.DiskReadBytes}, {"disk_write_bytes", s.DiskWriteBytes},
		{"diffs", s.DiffsMade}, {"diff_bytes", s.DiffBytes},
		{"obj_fetches", s.ObjFetches},
		{"lock_acquires", s.LockAcquires}, {"barriers", s.Barriers},
		{"home_migrations", s.HomeMigrates}, {"invalidations", s.Invalidations},
		{"leases_granted", s.LeasesGranted}, {"lease_hits", s.LeaseHits},
		{"lease_demotes", s.LeaseDemotes},
		{"ckpts", s.Ckpts}, {"ckpt_bytes", s.CkptBytes},
		{"ckpt_skipped", s.CkptSkipped}, {"rehomes", s.Rehomes},
		{"page_faults", s.PageFaults}, {"false_sharing_faults", s.FalseShares},
		{"pin_denials", s.PinDenls},
	}
	for _, r := range rows {
		if r.v != 0 {
			fmt.Fprintf(&b, "%s=%d ", r.k, r.v)
		}
	}
	return strings.TrimSpace(b.String())
}

// SimClock is a node's deterministic simulated clock. Time is held in
// nanoseconds. Clocks advance when the owning node performs simulated
// work and merge forward when a message with a later causal timestamp is
// received, exactly like a Lamport clock over durations.
type SimClock struct {
	mu sync.Mutex
	ns int64
}

// Now returns the current simulated time.
func (c *SimClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Duration(c.ns)
}

// Advance moves the clock forward by d (negative d is ignored).
func (c *SimClock) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	c.ns += int64(d)
	c.mu.Unlock()
}

// MergeTo sets the clock to max(current, t). It returns the resulting
// time, which callers use as the causal receive timestamp.
func (c *SimClock) MergeTo(t time.Duration) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	if int64(t) > c.ns {
		c.ns = int64(t)
	}
	return time.Duration(c.ns)
}

// Reset sets the clock back to zero (used between harness runs).
func (c *SimClock) Reset() {
	c.mu.Lock()
	c.ns = 0
	c.mu.Unlock()
}

// MaxOf returns the maximum of the given simulated times; it is the
// cluster-level "execution time" of an SPMD phase (the slowest node).
func MaxOf(ts ...time.Duration) time.Duration {
	var m time.Duration
	for _, t := range ts {
		if t > m {
			m = t
		}
	}
	return m
}

// Table formats a slice of per-node snapshots as an aligned text table.
// Only columns with at least one non-zero value are included.
func Table(snaps []Snapshot) string {
	type col struct {
		name string
		get  func(Snapshot) int64
	}
	cols := []col{
		{"msgs", func(s Snapshot) int64 { return s.MsgsSent }},
		{"bytes", func(s Snapshot) int64 { return s.BytesSent }},
		{"checks", func(s Snapshot) int64 { return s.AccessChecks }},
		{"mapins", func(s Snapshot) int64 { return s.MapIns }},
		{"swaps", func(s Snapshot) int64 { return s.SwapOuts }},
		{"dskRd", func(s Snapshot) int64 { return s.DiskReads }},
		{"dskWr", func(s Snapshot) int64 { return s.DiskWrites }},
		{"diffs", func(s Snapshot) int64 { return s.DiffsMade }},
		{"fetch", func(s Snapshot) int64 { return s.ObjFetches }},
		{"locks", func(s Snapshot) int64 { return s.LockAcquires }},
		{"barr", func(s Snapshot) int64 { return s.Barriers }},
		{"migr", func(s Snapshot) int64 { return s.HomeMigrates }},
		{"inval", func(s Snapshot) int64 { return s.Invalidations }},
		{"lhit", func(s Snapshot) int64 { return s.LeaseHits }},
		{"ldem", func(s Snapshot) int64 { return s.LeaseDemotes }},
		{"ckpt", func(s Snapshot) int64 { return s.Ckpts }},
		{"rehom", func(s Snapshot) int64 { return s.Rehomes }},
		{"fault", func(s Snapshot) int64 { return s.PageFaults }},
	}
	live := cols[:0]
	for _, c := range cols {
		any := false
		for _, s := range snaps {
			if c.get(s) != 0 {
				any = true
				break
			}
		}
		if any {
			live = append(live, c)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s", "node")
	for _, c := range live {
		fmt.Fprintf(&b, " %10s", c.name)
	}
	b.WriteByte('\n')
	for i, s := range snaps {
		fmt.Fprintf(&b, "%-5d", i)
		for _, c := range live {
			fmt.Fprintf(&b, " %10d", c.get(s))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Percentiles returns the p-quantiles (0..1) of the given durations.
func Percentiles(ds []time.Duration, ps ...float64) []time.Duration {
	if len(ds) == 0 {
		return make([]time.Duration, len(ps))
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	out := make([]time.Duration, len(ps))
	for i, p := range ps {
		if p < 0 {
			p = 0
		}
		if p > 1 {
			p = 1
		}
		idx := int(p * float64(len(sorted)-1))
		out[i] = sorted[idx]
	}
	return out
}
