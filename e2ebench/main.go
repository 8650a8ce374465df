// Command e2ebench is the repository's end-to-end benchmark: it runs
// the three LOTS workloads described in README.md on the public lots
// API, checks every run's output, and prints each metric by name and
// unit. The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (untraced reps);
// with -trace 1 they are the per-layer ones, from traced reps
// alternated with untraced ones so the tracing overhead is measured.
//
//	go build -o e2ebench . && ./e2ebench -workload outofcore-zipf -seed 1 -seconds 10 -trace 0
//
// run.sh builds and runs it from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// gated are the end-to-end metrics BENCHMARK.json bounds. The table
// also prints op_ms_p99 and sim_s, which -trace 1 reports ungated, and
// failed_frac, which the JSON carries as failed/attempted.
var gated = map[string]bool{"setup_s": true, "run_s": true, "op_ms_p50": true, "live_heap_mb": true}

type metric struct {
	name  string
	value float64
	unit  string
}

// summary is the outcome of measuring one workload for a while.
type summary struct {
	workload          string
	correct           bool
	attempted, failed int
	e2e               []metric // end-to-end metrics, from the untraced reps
	samples           int      // op latency samples behind op_ms_p50/p99
	layers            []metric // per-layer metrics (traced invocations only)
}

func main() {
	name := flag.String("workload", "", "sor-resident, outofcore-zipf, locks-udp, or all")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "how long to keep starting reps, per workload")
	traced := flag.Int("trace", 0, "1: alternate traced and untraced reps and report per-layer metrics")
	outdir := flag.String("outdir", ".bench_build", "directory for span dumps")
	flag.Parse()

	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	for _, n := range names {
		if !slices.Contains(workloadNames, n) {
			fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q (want %s or all)\n", n, strings.Join(workloadNames, ", "))
			os.Exit(2)
		}
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*outdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	// A rep that hangs (a dead rank leaves its peer in a barrier) ends
	// the run with a named cause instead of blocking forever.
	limit := time.Duration(float64(len(names))*(*seconds)*1.5*float64(time.Second)) + 100*time.Second
	time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "e2ebench: watchdog: run exceeded %v\n", limit)
		os.Exit(1)
	})

	env := environment()
	fmt.Printf("# env %s\n", env)
	var sums []summary
	for _, n := range names {
		s, err := measure(n, *seed, *seconds, *traced == 1, *outdir, env)
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", n, err)
			os.Exit(1)
		}
		sums = append(sums, s)
	}
	printTable(sums, *traced == 1)

	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: true, Metrics: map[string]map[string]any{}}
	for _, s := range sums {
		out.Correct = out.Correct && s.correct
		out.Attempted += s.attempted
		out.Failed += s.failed
		ms := s.e2e
		if *traced == 1 {
			ms = s.layers
		}
		for _, m := range ms {
			if *traced == 0 && !gated[m.name] {
				continue // printed above; ungated (see README.md)
			}
			key := m.name
			if len(sums) > 1 {
				key = s.workload + "." + m.name
			}
			out.Metrics[key] = map[string]any{"value": m.value, "unit": m.unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// measure starts fresh reps of one workload until seconds have passed
// (and at least minReps of each kind ran), then summarizes them.
func measure(name string, seed int64, seconds float64, traced bool, outdir, env string) (summary, error) {
	const minReps = 3
	w := newWorkload(name, seed)
	s := summary{workload: name, correct: true}
	var plain, withSpans []*rep
	var last *rep // the traced rep whose spans are kept for the dump
	begin := time.Now()
	for id := 0; ; id++ {
		tr := traced && id%2 == 1
		h, err := runRep(w, tr)
		if err != nil {
			return s, err
		}
		s.attempted += w.ops()
		if tr {
			withSpans = append(withSpans, h)
			checkTrace(h)
			if last != nil {
				last.tr = [ranks]*tracer{}
			}
			last = h
		} else {
			plain = append(plain, h)
		}
		if h.failed.Load() {
			s.correct = false
			s.failed += w.ops()
		}
		fmt.Printf("# %s rep %d traced=%v setup_s=%.6f run_s=%.6f op_ms_p50=%.6f op_ms_p99=%.6f sim_s=%.6f live_heap_mb=%.3f",
			name, id, tr, h.setupEnd.Sub(h.t0).Seconds(), h.ends[0].Sub(h.start).Seconds(), h.opP50, h.opP99,
			(h.simEnd - h.simBefore).Seconds(), float64(h.liveHeap)/(1<<20))
		if tr {
			for l, v := range h.bd[0].self {
				fmt.Printf(" %s.self_s=%.6f", layerName[l], float64(v)/1e9)
			}
			fmt.Printf(" apps.self_s=%.6f", float64(h.bd[0].apps)/1e9)
		}
		fmt.Printf(" ok=%v %s\n", !h.failed.Load(), strings.Join(h.errs, "; "))
		if time.Since(begin).Seconds() >= seconds && len(plain) >= minReps && (!traced || len(withSpans) >= minReps) {
			break
		}
	}
	s.e2e, s.samples = endToEnd(plain, s.failed, s.attempted)
	if traced {
		s.layers = perLayer(w, plain, withSpans)
		path := filepath.Join(outdir, name+".spans.tsv")
		hdr := fmt.Sprintf(`{"workload":%q,"seed":%d,"env":%s}`, name, seed, env)
		if err := writeSpans(path, hdr, last.tr[:]); err != nil {
			return s, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("# spans of the last traced rep: %s\n", path)
	}
	return s, nil
}

// checkTrace splits every rank's traced steady phase by layer; a
// breakdown that does not add up to the rank's window fails the rep.
// It also pools both ranks' span durations into per-kind quantiles.
func checkTrace(h *rep) {
	for r, t := range h.tr {
		bd, err := analyze(t, h.start.Sub(h.t0).Nanoseconds(), h.ends[r].Sub(h.t0).Nanoseconds())
		if err != nil {
			h.fail("rank %d: trace does not reconcile: %v", r, err)
		}
		h.bd[r] = bd
	}
	for k := range h.spanP50 {
		var us []float64
		for r := range h.bd {
			us = append(us, h.bd[r].dur[k]...)
			h.bd[r].dur[k] = nil
		}
		h.spanP50[k] = quantile(us, 0.50)
		h.spanP99[k] = quantile(us, 0.99)
	}
}

// medianOf applies f to every rep and returns the median.
func medianOf(reps []*rep, f func(*rep) float64) float64 {
	xs := make([]float64, len(reps))
	for i, h := range reps {
		xs[i] = f(h)
	}
	return median(xs)
}

func endToEnd(reps []*rep, failed, attempted int) ([]metric, int) {
	samples := 0
	for _, h := range reps {
		samples += h.samples
	}
	ms := []metric{
		{"setup_s", medianOf(reps, func(h *rep) float64 { return h.setupEnd.Sub(h.t0).Seconds() }), "s"},
		{"run_s", medianOf(reps, func(h *rep) float64 { return h.ends[0].Sub(h.start).Seconds() }), "s"},
		{"op_ms_p50", medianOf(reps, func(h *rep) float64 { return h.opP50 }), "ms"},
		{"op_ms_p99", medianOf(reps, func(h *rep) float64 { return h.opP99 }), "ms"},
		{"sim_s", medianOf(reps, simSeconds), "sim_s"},
		{"live_heap_mb", medianOf(reps, func(h *rep) float64 { return float64(h.liveHeap) / (1 << 20) }), "MiB"},
		{"failed_frac", float64(failed) / float64(attempted), "ratio"},
	}
	return ms, samples
}

// simSeconds is the steady phase's simulated time. Socket transports
// have no simulated clock, so it is 0 there.
func simSeconds(h *rep) float64 {
	if !h.mem {
		return 0
	}
	return (h.simEnd - h.simBefore).Seconds()
}

// perLayer reports the per-layer metrics: counters are steady-phase
// deltas (cluster totals), span statistics pool both ranks, and self
// times are rank 0's, so they add up to rank 0's traced run_s. Each is
// the median over the traced reps; op_ms_p99 and the allocator metrics
// come from the untraced reps, which tracing would otherwise inflate.
func perLayer(w workload, plain, withSpans []*rep) []metric {
	ops := float64(w.ops())
	var rows [][]metric
	for _, h := range withSpans {
		bd := h.bd
		d := h.after.Sub(h.before)
		ratio := func(a, b int64) float64 {
			if b == 0 {
				return 0
			}
			return float64(a) / float64(b)
		}
		ns := func(v int64) float64 { return float64(v) / 1e9 }
		hit := 0.0
		if d.Views > 0 {
			hit = 1 - ratio(d.MapIns, d.Views)
		}
		rows = append(rows, []metric{
			{"view.opens", float64(d.Views), "count"},
			{"view.open_us_p50", h.spanP50[kViewOpen], "us"},
			{"view.release_us_p50", h.spanP50[kViewRelease], "us"},
			{"view.checks", float64(d.AccessChecks), "count"},
			{"view.self_s", ns(bd[0].self[lView]), "s"},
			{"fetch.count", float64(d.ObjFetches), "count"},
			{"barrier.count", float64(d.Barriers), "count"},
			{"barrier.wall_s", ns(bd[0].busy[kBarrier]), "s"},
			{"barrier.sim_s", ns(bd[0].sim[kBarrier]), "sim_s"},
			{"barrier.invalidations", float64(d.Invalidations), "count"},
			{"barrier.home_migrations", float64(d.HomeMigrates), "count"},
			{"barrier.self_s", ns(bd[0].self[lBarrier]), "s"},
			{"lock.acquires", float64(d.LockAcquires), "count"},
			{"lock.acquire_us_p50", h.spanP50[kAcquire], "us"},
			{"lock.acquire_us_p99", h.spanP99[kAcquire], "us"},
			{"lock.release_us_p50", h.spanP50[kRelease], "us"},
			{"lock.self_s", ns(bd[0].self[lLock]), "s"},
			{"diffing.diffs", float64(d.DiffsMade), "count"},
			{"diffing.bytes", float64(d.DiffBytes), "bytes"},
			{"diffing.bytes_per_op", float64(d.DiffBytes) / ops, "bytes"},
			{"dmm.map_ins", float64(d.MapIns), "count"},
			{"dmm.swap_outs", float64(d.SwapOuts), "count"},
			{"dmm.hit_ratio", hit, "ratio"},
			{"dmm.pin_denials", float64(d.PinDenls), "count"},
			{"disk.reads", float64(d.DiskReads), "count"},
			{"disk.writes", float64(d.DiskWrites), "count"},
			{"disk.read_bytes", float64(d.DiskReadBytes), "bytes"},
			{"disk.write_bytes", float64(d.DiskWriteBytes), "bytes"},
			{"disk.read_us_p50", h.spanP50[kDiskRead], "us"},
			{"disk.write_us_p50", h.spanP50[kDiskWrite], "us"},
			{"disk.busy_s", ns(bd[0].busy[kDiskRead] + bd[0].busy[kDiskWrite] + bd[1].busy[kDiskRead] + bd[1].busy[kDiskWrite]), "s"},
			{"disk.self_s", ns(bd[0].self[lDisk]), "s"},
			{"transport.msgs", float64(d.MsgsSent), "count"},
			{"transport.bytes", float64(d.BytesSent), "bytes"},
			{"transport.frags", float64(d.FragsSent), "count"},
			{"transport.retrans", float64(d.FragsRetrans), "count"},
			{"transport.retrans_frac", ratio(d.FragsRetrans, d.FragsSent), "ratio"},
			{"transport.msgs_per_op", float64(d.MsgsSent) / ops, "count"},
			{"apps.self_s", ns(bd[0].apps), "s"},
			{"sim_s", simSeconds(h), "sim_s"},
			{"trace.run_s", ns(bd[0].window), "s"},
		})
	}
	out := medianRows(rows)
	untracedRun := medianOf(plain, func(h *rep) float64 { return h.ends[0].Sub(h.start).Seconds() })
	tracedRun := medianOf(withSpans, func(h *rep) float64 { return h.ends[0].Sub(h.start).Seconds() })
	out = append(out,
		metric{"op_ms_p99", medianOf(plain, func(h *rep) float64 { return h.opP99 }), "ms"},
		metric{"trace.overhead_frac", tracedRun/untracedRun - 1, "ratio"},
		metric{"runtime.alloc_bytes_per_op", medianOf(plain, func(h *rep) float64 {
			return float64(h.memAfter.TotalAlloc-h.memBefore.TotalAlloc) / ops
		}), "bytes"},
		metric{"runtime.gc_cycles", medianOf(plain, func(h *rep) float64 {
			return float64(h.memAfter.NumGC - h.memBefore.NumGC)
		}), "count"},
	)
	return out
}

// medianRows takes, metric by metric, the median over reps.
func medianRows(rows [][]metric) []metric {
	out := append([]metric(nil), rows[0]...)
	for i := range out {
		xs := make([]float64, len(rows))
		for j, row := range rows {
			xs[j] = row[i].value
		}
		out[i].value = median(xs)
	}
	return out
}

// printTable prints one row per workload with every end-to-end metric,
// and with -trace 1 one column per workload of per-layer metrics.
func printTable(sums []summary, traced bool) {
	fmt.Println()
	fmt.Printf("%-16s", "workload")
	for _, m := range sums[0].e2e {
		fmt.Printf(" %18s", m.name+"["+m.unit+"]")
	}
	fmt.Printf(" %8s\n", "samples")
	for _, s := range sums {
		fmt.Printf("%-16s", s.workload)
		for _, m := range s.e2e {
			if m.name == "sim_s" && m.value == 0 {
				fmt.Printf(" %18s", "n/a")
				continue
			}
			fmt.Printf(" %18.6f", m.value)
		}
		fmt.Printf(" %8d\n", s.samples)
	}
	if !traced {
		return
	}
	fmt.Println()
	fmt.Printf("%-28s %-6s", "per-layer metric", "unit")
	for _, s := range sums {
		fmt.Printf(" %16s", s.workload)
	}
	fmt.Println()
	for i, m := range sums[0].layers {
		fmt.Printf("%-28s %-6s", m.name, m.unit)
		for _, s := range sums {
			fmt.Printf(" %16.6g", s.layers[i].value)
		}
		fmt.Println()
	}
}

// environment records what the numbers depend on besides the code.
func environment() string {
	rec := map[string]any{
		"go":          runtime.Version(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"nproc":       runtime.NumCPU(),
		"commit":      gitCommit(),
		"source_sha":  sourceDigest(),
		"spill":       "disk.SimStore",
		"goos_goarch": runtime.GOOS + "/" + runtime.GOARCH,
	}
	b, _ := json.Marshal(rec) // a map of strings and ints always marshals
	return string(b)
}
