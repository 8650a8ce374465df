package harness

import (
	"fmt"
	"testing"

	lots "repro"
)

// The benchscen scenario backs `lotsbench -bench`: one pinned,
// fully deterministic barrier-round workload whose wire-level costs —
// protocol messages, datagrams (wire fragments), bytes on the wire,
// batch counts, simulated epoch latency — are stable run to run, so a
// persisted BENCH_*.json trajectory can gate >10% regressions. The
// workload is the coalescer's target shape: every node writes a stripe
// of every one of several multi-writer objects each epoch, so each
// reconciliation fans several diffs out to each peer home.

// BarrierRoundResult are the cluster-total wire costs of the pinned
// barrier workload.
type BarrierRoundResult struct {
	Msgs        int64 // logical protocol messages sent
	Datagrams   int64 // wire fragments (one datagram/write each)
	Bytes       int64 // encoded bytes on the wire
	Batches     int64 // coalesced TBatch envelopes
	BatchedMsgs int64 // messages carried inside batches
	SimNS       int64 // simulated time for the whole run
	Epochs      int
}

// Pinned shape of the bench barrier round; changing any of these
// invalidates the BENCH trajectory, so they are constants, not flags.
const (
	benchBarrierNodes  = 4
	benchBarrierObjs   = 8
	benchBarrierWords  = 64
	benchBarrierEpochs = 6
)

// BenchBarrierRound runs the pinned workload over the given transport
// with or without frame coalescing and returns cluster-total costs.
// Over the mem transport every field is deterministic; socket
// transports add wall-clock retransmission noise, so their numbers are
// recorded but not gated.
func BenchBarrierRound(kind lots.TransportKind, coalesce bool) (BarrierRoundResult, error) {
	cfg := lots.DefaultConfig(benchBarrierNodes)
	cfg.Transport = kind
	cfg.Coalesce = coalesce
	c, err := lots.NewCluster(cfg)
	if err != nil {
		return BarrierRoundResult{}, err
	}
	defer c.Close()
	err = c.Run(func(n *lots.Node) {
		ptrs := make([]lots.Ptr[int32], benchBarrierObjs)
		for o := range ptrs {
			ptrs[o] = lots.Alloc[int32](n, benchBarrierWords)
		}
		n.Barrier()
		stripe := benchBarrierWords / benchBarrierNodes
		lo := n.ID() * stripe
		for e := 0; e < benchBarrierEpochs; e++ {
			for o := range ptrs {
				for i := lo; i < lo+stripe; i++ {
					ptrs[o].Set(i, ptrs[o].Get(i)+int32((e+1)*(o+3)+n.ID()))
				}
			}
			n.Barrier()
		}
		// Cross-check the reconciled state so a silently wrong protocol
		// cannot post a fast number.
		for o := range ptrs {
			for i := 0; i < benchBarrierWords; i++ {
				want := int32(0)
				for e := 0; e < benchBarrierEpochs; e++ {
					want += int32((e+1)*(o+3) + i/stripe)
				}
				if got := ptrs[o].Get(i); got != want {
					panic(fmt.Sprintf("bench barrier state: obj %d[%d] = %d, want %d", o, i, got, want))
				}
			}
		}
	})
	if err != nil {
		return BarrierRoundResult{}, err
	}
	t := c.Total()
	return BarrierRoundResult{
		Msgs:        t.MsgsSent,
		Datagrams:   t.FragsSent,
		Bytes:       t.BytesSent,
		Batches:     t.BatchesSent,
		BatchedMsgs: t.BatchedMsgs,
		SimNS:       int64(c.SimTime()),
		Epochs:      benchBarrierEpochs,
	}, nil
}

// ViewRowSumWords is the row length of the pinned view row-sum
// micro-benchmark.
const ViewRowSumWords = 4096

// BenchViewRowSum times the typed view element path on one node: each
// op opens a read view over a ViewRowSumWords-element int32 row, sums
// it through At, and releases it. It reports the wall-clock cost per
// element, view open and release included, as "ns/elem". It backs both
// BenchmarkViewRowSum and the `lotsbench -bench` view/row_sum point.
func BenchViewRowSum(b *testing.B) {
	c, err := lots.NewCluster(lots.DefaultConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	err = c.Run(func(n *lots.Node) {
		row := lots.Alloc[int32](n, ViewRowSumWords)
		fill := make([]int32, ViewRowSumWords)
		for k := range fill {
			fill[k] = int32(k)
		}
		row.SetN(0, fill)
		const want = ViewRowSumWords * (ViewRowSumWords - 1) / 2
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v := row.View(0, ViewRowSumWords)
			sum := 0
			for k := 0; k < v.Len(); k++ {
				sum += int(v.At(k))
			}
			v.Release()
			if sum != want {
				panic(fmt.Sprintf("view row sum = %d, want %d", sum, want))
			}
		}
		b.StopTimer()
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ViewRowSumWords), "ns/elem")
}
