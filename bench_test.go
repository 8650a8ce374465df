// Package lots_test's benchmarks regenerate the paper's evaluation (§4): one benchmark
// per figure panel and table, plus the ablations of DESIGN.md. Each
// reports the deterministic simulated cluster time as "sim-ms" — the
// quantity corresponding to the paper's measured seconds — alongside
// Go's wall-clock ns/op (which measures this host, not the modelled
// 2004 cluster).
//
//	go test -bench=. -benchmem
//
// Mapping to the paper:
//
//	BenchmarkFig8/*        -> Figure 8 (ME, LU, SOR, RX x {JIAJIA, LOTS, LOTS-x})
//	BenchmarkOverhead/*    -> §4.2 large-object-space overhead (LOTS vs LOTS-x)
//	BenchmarkAccessCheck   -> §4.2 20-25 ns access check measurement
//	BenchmarkViewCost      -> View API redesign: element-wise vs span views (DESIGN.md)
//	BenchmarkViewRowSum    -> typed view element path, wall-clock ns per element
//	BenchmarkTable1/*      -> Table 1 platform sweep (scaled; sim-ms extrapolates x64)
//	BenchmarkMaxSpace      -> §4.3 free-disk exhaustion (scaled)
//	BenchmarkAblation*     -> DESIGN.md ablation index
package lots_test

import (
	"testing"

	lots "repro"
	"repro/internal/harness"
	"repro/internal/platform"
)

func benchCell(b *testing.B, spec harness.RunSpec) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := harness.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.SimTime.Seconds()*1e3, "sim-ms")
		b.ReportMetric(float64(r.Totals.MsgsSent), "msgs")
		b.ReportMetric(float64(r.Totals.BytesSent), "wire-B")
	}
}

// BenchmarkFig8 regenerates Figure 8, one sub-benchmark per
// (application, system) pair at the mid-size problem with 4 processes.
func BenchmarkFig8(b *testing.B) {
	prof := platform.PIV2GFedora()
	problems := map[harness.AppName]int{
		harness.AppME:  65536,
		harness.AppLU:  64,
		harness.AppSOR: 64,
		harness.AppRX:  65536,
	}
	for _, app := range harness.AllApps() {
		for _, sys := range []harness.System{harness.SysJIAJIA, harness.SysLOTS, harness.SysLOTSX} {
			b.Run(string(app)+"/"+string(sys), func(b *testing.B) {
				benchCell(b, harness.RunSpec{
					System: sys, App: app, Problem: problems[app],
					Procs: 4, Platform: prof,
				})
			})
		}
	}
}

// BenchmarkOverhead regenerates the §4.2 overhead comparison.
func BenchmarkOverhead(b *testing.B) {
	prof := platform.PIV2GFedora()
	problems := map[harness.AppName]int{
		harness.AppME: 65536, harness.AppLU: 64,
		harness.AppSOR: 64, harness.AppRX: 262144,
	}
	for _, app := range harness.AllApps() {
		b.Run(string(app), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := harness.OverheadSweep(
					map[harness.AppName]int{app: problems[app],
						harness.AppME: problems[harness.AppME], harness.AppLU: problems[harness.AppLU],
						harness.AppSOR: problems[harness.AppSOR], harness.AppRX: problems[harness.AppRX]},
					4, prof)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range rows {
					if r.App == app {
						b.ReportMetric(100*r.Overhead, "overhead-%")
					}
				}
			}
		})
	}
}

// BenchmarkAccessCheck measures the per-access status check on a
// resident, clean object — the operation the paper times at 20-25 ns on
// a 2 GHz Pentium IV (this Go runtime pays mutex costs the C++ runtime
// did not; the simulated model charges the paper's figure).
func BenchmarkAccessCheck(b *testing.B) {
	c, err := lots.NewCluster(lots.DefaultConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	errc := make(chan error, 1)
	done := make(chan struct{})
	err = nil
	go func() {
		errc <- c.Run(func(n *lots.Node) {
			a := lots.Alloc[int32](n, 1024)
			a.Set(0, 1)
			b.ResetTimer()
			var sink int32
			for i := 0; i < b.N; i++ {
				sink += a.Get(i & 1023)
			}
			_ = sink
			close(done)
		})
	}()
	<-done
	if err := <-errc; err != nil {
		b.Fatal(err)
	}
}

// BenchmarkViewCost compares the two access paths of the public API on
// the identical striped workload: element-wise Ptr.Get/Set (one lock +
// one check per element) against pinned zero-copy span views (one lock,
// one check, one pin per span). The `view` cell's sim-ms should run
// several times below `elem`'s with identical msgs; `lotsbench -exp
// viewcost` self-asserts the >=3x bar.
func BenchmarkViewCost(b *testing.B) {
	prof := platform.PIV2GFedora()
	const (
		words  = 8192
		rounds = 2
		passes = 64
		procs  = 2
	)
	for i := 0; i < b.N; i++ {
		r, err := harness.ViewCost(words, rounds, passes, procs, prof)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Elem.SimTime.Seconds()*1e3, "elem-sim-ms")
		b.ReportMetric(r.View.SimTime.Seconds()*1e3, "view-sim-ms")
		b.ReportMetric(float64(r.Elem.Checks), "elem-checks")
		b.ReportMetric(float64(r.View.Checks), "view-checks")
		b.ReportMetric(r.SimRatio(), "sim-ratio-x")
	}
}

// BenchmarkViewRowSum measures the typed view element path on this
// host: open a read view over a 4096-element int32 row, sum it through
// At, release. "ns/elem" is the per-element wall-clock cost with the
// span's single check and pin amortized over the row.
func BenchmarkViewRowSum(b *testing.B) { harness.BenchViewRowSum(b) }

// BenchmarkTable1 regenerates Table 1 (scaled 64x; sim-ms extrapolates
// linearly back to the paper's 1114/976/142 second rows).
func BenchmarkTable1(b *testing.B) {
	for _, spec := range harness.PaperTable1Rows() {
		spec := spec
		b.Run(spec.Platform.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := harness.RunTable1(spec)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.SimTime.Seconds()*1e3, "sim-ms")
				b.ReportMetric(r.FullSimTime.Seconds(), "fullscale-s")
				b.ReportMetric(float64(r.BytesToDisk), "disk-B")
			}
		})
	}
}

// BenchmarkMaxSpace regenerates the §4.3 capacity exhaustion at 1/256
// of the Xeon servers' 117.77 GB free disk.
func BenchmarkMaxSpace(b *testing.B) {
	capacity := platform.XeonSMP().DiskFreeBytes >> 8
	for i := 0; i < b.N; i++ {
		r, err := harness.RunMaxSpaceWithCapacity(16<<20, capacity)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.ReachedBytes)/(1<<20), "space-MB")
		b.ReportMetric(float64(r.Objects), "objects")
	}
}

// BenchmarkAblationProtocol compares the mixed coherence protocol with
// its pure variants (§3.4).
func BenchmarkAblationProtocol(b *testing.B) {
	prof := platform.PIV2GFedora()
	for i := 0; i < b.N; i++ {
		rows, err := harness.AblationProtocol(4, prof)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.SimTime.Seconds()*1e3, r.Variant+"-sim-ms")
		}
	}
}

// BenchmarkAblationDiff compares per-field timestamps with accumulated
// diff chains (§3.5, Figure 7).
func BenchmarkAblationDiff(b *testing.B) {
	prof := platform.PIV2GFedora()
	for i := 0; i < b.N; i++ {
		rows, err := harness.AblationDiff(4, prof)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(float64(r.DiffB), r.Variant+"-B")
		}
	}
}

// BenchmarkAblationEvict compares LRU+pinning with FIFO eviction (§3.3).
func BenchmarkAblationEvict(b *testing.B) {
	prof := platform.PIV2GFedora()
	for i := 0; i < b.N; i++ {
		rows, err := harness.AblationEvict(prof)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.SimTime.Seconds()*1e3, r.Variant+"-sim-ms")
		}
	}
}

// BenchmarkAblationRunBarrier compares the event-only run_barrier with
// the full barrier (§3.6).
func BenchmarkAblationRunBarrier(b *testing.B) {
	prof := platform.PIV2GFedora()
	for i := 0; i < b.N; i++ {
		rows, err := harness.AblationRunBarrier(4, prof)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.SimTime.Seconds()*1e3, r.Variant+"-sim-ms")
		}
	}
}
