package main

// Pinned-scenario benchmark mode (`lotsbench -bench`): measures the
// wire hot path and the pinned barrier-round workload, writes the
// results as BENCH_<n>.json, and compares them against the previously
// committed BENCH_*.json, failing on any >10% regression of a gated
// metric. Gated metrics are fully deterministic (allocation counts,
// datagram/byte counts, simulated-time latencies, cost ratios);
// wall-clock ns/op and socket-transport numbers ride along ungated —
// they are trajectory context, not gates.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"testing"
	"time"

	lots "repro"
	"repro/internal/harness"
	"repro/internal/platform"
	"repro/internal/wire"
)

// benchSchema versions the BENCH_*.json layout.
const benchSchema = 1

// benchGateTolerance is the relative regression a gated metric may
// show against the previous trajectory point before the comparator
// fails.
const benchGateTolerance = 0.10

type benchMetric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Gate   bool    `json:"gate"`
	Better string  `json:"better"` // "less" or "more"
}

type benchFile struct {
	Schema  int                    `json:"schema"`
	Pinned  string                 `json:"pinned"`
	Go      string                 `json:"go"`
	Metrics map[string]benchMetric `json:"metrics"`
}

// runBench executes every pinned scenario, self-asserts the zero-alloc
// and coalescing claims, emits outPath, and runs the comparator
// against prevPath (or the newest committed BENCH_*.json when empty).
func runBench(outPath, prevPath string) error {
	bf := benchFile{
		Schema:  benchSchema,
		Pinned:  "wire 256B/256KiB roundtrip; barrier 4n x 8obj x 64w x 6ep; viewcost 2048w x 3r x 2p x 3n; leasecost 6rows x 48w x 6r x 4n; view row sum 4096 int32",
		Go:      runtime.Version(),
		Metrics: map[string]benchMetric{},
	}
	gated := func(name string, v float64, unit, better string) {
		bf.Metrics[name] = benchMetric{Value: v, Unit: unit, Gate: true, Better: better}
	}
	info := func(name string, v float64, unit, better string) {
		bf.Metrics[name] = benchMetric{Value: v, Unit: unit, Gate: false, Better: better}
	}

	// --- Wire encode/decode + fragment path --------------------------------
	fmt.Println("== bench: wire path ==")
	for _, sz := range []struct {
		name    string
		payload int
	}{{"small_256B", 256}, {"large_256K", 256 << 10}} {
		m := wire.Message{Type: wire.TBarrierDiff, From: 1, To: 2, ReqID: 9,
			SimTime: 5, Payload: make([]byte, sz.payload)}
		legacyAllocs := testing.AllocsPerRun(200, func() {
			enc := wire.Encode(m)
			if _, err := wire.Decode(enc); err != nil {
				panic(err)
			}
		})
		pooled := func() {
			enc := wire.EncodePooled(m)
			if _, err := wire.DecodeInPlace(enc); err != nil {
				panic(err)
			}
			wire.PutSlab(enc)
		}
		for i := 0; i < 8; i++ {
			pooled() // warm the slab pool before measuring
		}
		pooledAllocs := testing.AllocsPerRun(200, pooled)
		// Acceptance self-assert: the pooled path must at least halve
		// the legacy path's allocations (it is zero in practice).
		if legacyAllocs > 0 && pooledAllocs > legacyAllocs/2 {
			return fmt.Errorf("bench: pooled encode/decode %s = %.1f allocs/op vs legacy %.1f: less than 50%% reduction",
				sz.name, pooledAllocs, legacyAllocs)
		}
		iters := 20000
		if sz.payload > 64<<10 {
			iters = 500
		}
		start := time.Now()
		for i := 0; i < iters; i++ {
			pooled()
		}
		nsPerOp := float64(time.Since(start).Nanoseconds()) / float64(iters)
		pfx := "wire/" + sz.name + "/"
		gated(pfx+"pooled_allocs_per_op", pooledAllocs, "allocs/op", "less")
		gated(pfx+"legacy_allocs_per_op", legacyAllocs, "allocs/op", "less")
		gated(pfx+"bytes_on_wire", float64(wire.EncodedLen(m)), "B", "less")
		info(pfx+"pooled_ns_per_op", nsPerOp, "ns/op", "less")
		fmt.Printf("%-24s legacy %5.1f allocs/op  pooled %4.1f allocs/op  %8.0f ns/op  %d B\n",
			sz.name, legacyAllocs, pooledAllocs, nsPerOp, wire.EncodedLen(m))
	}

	// --- Pinned barrier round: serial vs coalesced, mem + udp --------------
	fmt.Println("\n== bench: barrier round (4 nodes, 8 objs, 6 epochs) ==")
	serial, err := harness.BenchBarrierRound(lots.TransportMem, false)
	if err != nil {
		return err
	}
	coal, err := harness.BenchBarrierRound(lots.TransportMem, true)
	if err != nil {
		return err
	}
	// Acceptance self-assert: coalescing must send fewer datagrams per
	// barrier round and must actually batch.
	if coal.Datagrams >= serial.Datagrams {
		return fmt.Errorf("bench: coalesced round uses %d datagrams, serial %d: no reduction",
			coal.Datagrams, serial.Datagrams)
	}
	if coal.Batches == 0 {
		return fmt.Errorf("bench: coalesced round sent zero batches")
	}
	gated("barrier_round/serial/datagrams", float64(serial.Datagrams), "frames", "less")
	gated("barrier_round/serial/bytes_on_wire", float64(serial.Bytes), "B", "less")
	gated("barrier_round/serial/epoch_sim_ns", float64(serial.SimNS)/float64(serial.Epochs), "ns", "less")
	gated("barrier_round/coalesced/datagrams", float64(coal.Datagrams), "frames", "less")
	gated("barrier_round/coalesced/bytes_on_wire", float64(coal.Bytes), "B", "less")
	gated("barrier_round/coalesced/epoch_sim_ns", float64(coal.SimNS)/float64(coal.Epochs), "ns", "less")
	gated("barrier_round/coalesced/batches", float64(coal.Batches), "batches", "more")
	gated("barrier_round/coalesced/batched_msgs", float64(coal.BatchedMsgs), "msgs", "more")
	fmt.Printf("mem serial:    %4d msgs %4d datagrams %6d B  epoch %6.0f ns\n",
		serial.Msgs, serial.Datagrams, serial.Bytes, float64(serial.SimNS)/float64(serial.Epochs))
	fmt.Printf("mem coalesced: %4d msgs %4d datagrams %6d B  epoch %6.0f ns  (%d batches, %d batched msgs)\n",
		coal.Msgs, coal.Datagrams, coal.Bytes, float64(coal.SimNS)/float64(coal.Epochs),
		coal.Batches, coal.BatchedMsgs)

	// The same round over real UDP sockets: wall-clock scheduling can
	// retransmit, so these trajectory points are informational.
	udpSerial, err := harness.BenchBarrierRound(lots.TransportUDP, false)
	if err != nil {
		return err
	}
	udpCoal, err := harness.BenchBarrierRound(lots.TransportUDP, true)
	if err != nil {
		return err
	}
	if udpCoal.Batches == 0 {
		return fmt.Errorf("bench: coalesced UDP round sent zero batches")
	}
	info("barrier_round/udp_serial/datagrams", float64(udpSerial.Datagrams), "datagrams", "less")
	info("barrier_round/udp_coalesced/datagrams", float64(udpCoal.Datagrams), "datagrams", "less")
	info("barrier_round/udp_coalesced/batches", float64(udpCoal.Batches), "batches", "more")
	info("barrier_round/udp_serial/ack_datagrams", float64(udpSerial.AckDgrams), "datagrams", "less")
	info("barrier_round/udp_coalesced/ack_datagrams", float64(udpCoal.AckDgrams), "datagrams", "less")
	fmt.Printf("udp serial:    %4d msgs %4d datagrams %4d ack datagrams\n",
		udpSerial.Msgs, udpSerial.Datagrams, udpSerial.AckDgrams)
	fmt.Printf("udp coalesced: %4d msgs %4d datagrams %4d ack datagrams  (%d batches)\n",
		udpCoal.Msgs, udpCoal.Datagrams, udpCoal.AckDgrams, udpCoal.Batches)

	// --- View / lease cost epochs (simulated, deterministic) ---------------
	fmt.Println("\n== bench: viewcost / leasecost epochs ==")
	vc, err := harness.ViewCost(2048, 3, 2, 3, platform.Test())
	if err != nil {
		return err
	}
	gated("viewcost/sim_ratio", vc.SimRatio(), "x", "more")
	gated("viewcost/view_epoch_sim_ns", float64(vc.View.SimTime.Nanoseconds())/3, "ns", "less")
	fmt.Printf("viewcost: elem/view sim ratio %.2fx, view epoch %s\n", vc.SimRatio(), vc.View.SimTime/3)
	lc, err := harness.LeaseCost(6, 48, 6, 4, platform.Test())
	if err != nil {
		return err
	}
	gated("leasecost/fetch_ratio", lc.FetchRatio(), "x", "more")
	gated("leasecost/lease_epoch_sim_ns", float64(lc.Lease.SimTime.Nanoseconds())/6, "ns", "less")
	fmt.Printf("leasecost: invalidate/lease fetch ratio %.2fx, lease epoch %s\n", lc.FetchRatio(), lc.Lease.SimTime/6)

	// --- Typed view element path (wall clock, informational) ---------------
	rs := testing.Benchmark(harness.BenchViewRowSum)
	if rs.N == 0 {
		return fmt.Errorf("bench: view row sum benchmark failed")
	}
	info("view/row_sum_ns_per_elem", rs.Extra["ns/elem"], "ns/elem", "less")
	fmt.Printf("view row sum: %.2f ns/elem (%d-element int32 row, open + sum + release)\n",
		rs.Extra["ns/elem"], harness.ViewRowSumWords)

	// --- Persist and compare -----------------------------------------------
	prev, prevName, err := loadPrevBench(outPath, prevPath)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s (%d metrics, %d gated)\n", outPath, len(bf.Metrics), countGated(bf))
	if prev == nil {
		fmt.Println("no previous BENCH_*.json found; trajectory starts here")
		return nil
	}
	regressions := compareBench(*prev, bf)
	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, "REGRESSION:", r)
		}
		return fmt.Errorf("bench: %d gated metric(s) regressed >%d%% vs %s",
			len(regressions), int(benchGateTolerance*100), prevName)
	}
	fmt.Printf("comparator: no gated metric regressed >%d%% vs %s\n",
		int(benchGateTolerance*100), prevName)
	return nil
}

func countGated(bf benchFile) int {
	n := 0
	for _, m := range bf.Metrics {
		if m.Gate {
			n++
		}
	}
	return n
}

// loadPrevBench resolves the previous trajectory point: an explicit
// prevPath, or the highest-numbered BENCH_<n>.json in outPath's
// directory (including a committed copy of outPath itself, read before
// it is overwritten). A missing trajectory is not an error — the first
// bench run seeds it.
func loadPrevBench(outPath, prevPath string) (*benchFile, string, error) {
	name := prevPath
	if name == "" {
		dir := filepath.Dir(outPath)
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, "", err
		}
		re := regexp.MustCompile(`^BENCH_(\d+)\.json$`)
		type cand struct {
			n    int
			path string
		}
		var cands []cand
		for _, e := range entries {
			if m := re.FindStringSubmatch(e.Name()); m != nil {
				n, _ := strconv.Atoi(m[1])
				cands = append(cands, cand{n, filepath.Join(dir, e.Name())})
			}
		}
		if len(cands) == 0 {
			return nil, "", nil
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i].n > cands[j].n })
		name = cands[0].path
	}
	data, err := os.ReadFile(name)
	if err != nil {
		if prevPath == "" && os.IsNotExist(err) {
			return nil, "", nil
		}
		return nil, "", err
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, "", fmt.Errorf("bench: parsing %s: %w", name, err)
	}
	if bf.Schema != benchSchema {
		fmt.Printf("previous %s has schema %d (current %d); skipping comparison\n",
			name, bf.Schema, benchSchema)
		return nil, "", nil
	}
	return &bf, name, nil
}

// compareBench returns one line per gated metric that regressed beyond
// the tolerance relative to prev. Metrics only one side knows are
// skipped (the trajectory may grow or retire metrics); a gated
// less-is-better metric whose previous value was 0 must stay 0.
func compareBench(prev, cur benchFile) []string {
	names := make([]string, 0, len(cur.Metrics))
	for name := range cur.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []string
	for _, name := range names {
		cm := cur.Metrics[name]
		pm, ok := prev.Metrics[name]
		if !ok || !cm.Gate || !pm.Gate {
			continue
		}
		switch cm.Better {
		case "less":
			limit := pm.Value * (1 + benchGateTolerance)
			if pm.Value == 0 {
				limit = 0
			}
			if cm.Value > limit {
				out = append(out, fmt.Sprintf("%s: %.2f -> %.2f %s (limit %.2f)",
					name, pm.Value, cm.Value, cm.Unit, limit))
			}
		case "more":
			if pm.Value == 0 {
				continue
			}
			limit := pm.Value * (1 - benchGateTolerance)
			if cm.Value < limit {
				out = append(out, fmt.Sprintf("%s: %.2f -> %.2f %s (floor %.2f)",
					name, pm.Value, cm.Value, cm.Unit, limit))
			}
		}
	}
	return out
}
