package stats

// Prometheus text exposition of a node's counters and protocol phase
// timings — the scrape surface behind cmd/lotsnode's -metrics flag.
// Stdlib only: the text format is a handful of lines per metric and
// needs no client library.
//
// Every Counters field is exported (snapshotFields is the single
// source of truth; TestSnapshotFieldsCoverEverything pins it to the
// Snapshot struct by reflection, so adding a counter without a metric
// fails the build's tests, and CI's fleet job fails a scrape missing
// any of these names). Counter values are cumulative and monotonic,
// so everything renders as a Prometheus counter; the per-epoch phase
// ring renders as gauges keyed by an epoch label.

import (
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"

	"repro/internal/stats/phases"
)

// Field is one named counter value of a Snapshot, in canonical order.
type Field struct {
	Name  string
	Value int64
}

// snapshotFields maps every Snapshot field to its metric name, in
// exposition order. The reflection test enforces exhaustiveness.
var snapshotFields = []struct {
	name string
	get  func(*Snapshot) int64
}{
	{"msgs_sent", func(s *Snapshot) int64 { return s.MsgsSent }},
	{"msgs_recv", func(s *Snapshot) int64 { return s.MsgsRecv }},
	{"batches_sent", func(s *Snapshot) int64 { return s.BatchesSent }},
	{"batched_msgs", func(s *Snapshot) int64 { return s.BatchedMsgs }},
	{"frags_sent", func(s *Snapshot) int64 { return s.FragsSent }},
	{"frags_retrans", func(s *Snapshot) int64 { return s.FragsRetrans }},
	{"fast_retrans", func(s *Snapshot) int64 { return s.FastRetrans }},
	{"rtt_samples", func(s *Snapshot) int64 { return s.RTTSamples }},
	{"acks_sent", func(s *Snapshot) int64 { return s.AcksSent }},
	{"acks_piggybacked", func(s *Snapshot) int64 { return s.AcksPiggybacked }},
	{"bytes_sent", func(s *Snapshot) int64 { return s.BytesSent }},
	{"bytes_recv", func(s *Snapshot) int64 { return s.BytesRecv }},
	{"access_checks", func(s *Snapshot) int64 { return s.AccessChecks }},
	{"views", func(s *Snapshot) int64 { return s.Views }},
	{"map_ins", func(s *Snapshot) int64 { return s.MapIns }},
	{"swap_outs", func(s *Snapshot) int64 { return s.SwapOuts }},
	{"disk_reads", func(s *Snapshot) int64 { return s.DiskReads }},
	{"disk_writes", func(s *Snapshot) int64 { return s.DiskWrites }},
	{"disk_read_bytes", func(s *Snapshot) int64 { return s.DiskReadBytes }},
	{"disk_write_bytes", func(s *Snapshot) int64 { return s.DiskWriteBytes }},
	{"diffs_made", func(s *Snapshot) int64 { return s.DiffsMade }},
	{"diff_bytes", func(s *Snapshot) int64 { return s.DiffBytes }},
	{"obj_fetches", func(s *Snapshot) int64 { return s.ObjFetches }},
	{"lock_acquires", func(s *Snapshot) int64 { return s.LockAcquires }},
	{"barriers", func(s *Snapshot) int64 { return s.Barriers }},
	{"home_migrations", func(s *Snapshot) int64 { return s.HomeMigrates }},
	{"invalidations", func(s *Snapshot) int64 { return s.Invalidations }},
	{"leases_granted", func(s *Snapshot) int64 { return s.LeasesGranted }},
	{"lease_hits", func(s *Snapshot) int64 { return s.LeaseHits }},
	{"lease_demotes", func(s *Snapshot) int64 { return s.LeaseDemotes }},
	{"ckpts", func(s *Snapshot) int64 { return s.Ckpts }},
	{"ckpt_bytes", func(s *Snapshot) int64 { return s.CkptBytes }},
	{"ckpt_skipped", func(s *Snapshot) int64 { return s.CkptSkipped }},
	{"rehomes", func(s *Snapshot) int64 { return s.Rehomes }},
	{"page_faults", func(s *Snapshot) int64 { return s.PageFaults }},
	{"false_sharing_faults", func(s *Snapshot) int64 { return s.FalseShares }},
	{"pin_denials", func(s *Snapshot) int64 { return s.PinDenls }},
}

// Fields returns every counter of the snapshot as (name, value) pairs
// in canonical order — the encoding the LCTL stat frame streams and
// the metric names the Prometheus surface exposes.
func (s Snapshot) Fields() []Field {
	out := make([]Field, len(snapshotFields))
	for i, f := range snapshotFields {
		out[i] = Field{Name: f.name, Value: f.get(&s)}
	}
	return out
}

// FieldNames returns the canonical counter metric names (without the
// lots_ prefix or _total suffix) — what a scrape verifier must find.
func FieldNames() []string {
	out := make([]string, len(snapshotFields))
	for i, f := range snapshotFields {
		out[i] = f.name
	}
	return out
}

// MetricPrefix namespaces every exposed metric.
const MetricPrefix = "lots_"

// WritePrometheus renders the snapshot and phase ring in Prometheus
// text exposition format, labeled with the node's rank. ph may be nil
// (phase families are emitted with zero totals so a scrape's gauge
// inventory is independent of workload).
func WritePrometheus(w io.Writer, node int, s Snapshot, ph *phases.Ring) {
	for _, f := range s.Fields() {
		fmt.Fprintf(w, "# TYPE %s%s_total counter\n", MetricPrefix, f.Name)
		fmt.Fprintf(w, "%s%s_total{node=\"%d\"} %d\n", MetricPrefix, f.Name, node, f.Value)
	}
	ns, events := ph.Totals()
	fmt.Fprintf(w, "# TYPE %sphase_ns_total counter\n", MetricPrefix)
	for _, k := range phases.Kinds() {
		fmt.Fprintf(w, "%sphase_ns_total{node=\"%d\",phase=%q} %d\n", MetricPrefix, node, k.String(), ns[k])
	}
	fmt.Fprintf(w, "# TYPE %sphase_events_total counter\n", MetricPrefix)
	for _, k := range phases.Kinds() {
		fmt.Fprintf(w, "%sphase_events_total{node=\"%d\",phase=%q} %d\n", MetricPrefix, node, k.String(), events[k])
	}
	if eps := ph.Epochs(); len(eps) > 0 {
		fmt.Fprintf(w, "# TYPE %sphase_epoch_ns gauge\n", MetricPrefix)
		for _, ep := range eps {
			for _, k := range phases.Kinds() {
				if ep.NS[k] == 0 {
					continue
				}
				fmt.Fprintf(w, "%sphase_epoch_ns{node=\"%d\",phase=%q,epoch=\"%d\"} %d\n",
					MetricPrefix, node, k.String(), ep.Epoch, ep.NS[k])
			}
		}
	}
}

// WriteBuildInfo emits the lots_build_info gauge: the conventional
// constant-1 info metric whose labels identify what binary this rank
// is running — module version (vcs stamp or "(devel)"), Go toolchain,
// and rank. A fleet dashboard joins on it to catch version skew.
func WriteBuildInfo(w io.Writer, node int) {
	version := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		version = bi.Main.Version
	}
	fmt.Fprintf(w, "# TYPE %sbuild_info gauge\n", MetricPrefix)
	fmt.Fprintf(w, "%sbuild_info{node=\"%d\",version=%q,goversion=%q} 1\n",
		MetricPrefix, node, version, runtime.Version())
}

// MetricsHandler serves WritePrometheus (plus the build-info gauge)
// over HTTP — mount it at /metrics. snap is called per scrape (a
// Snapshot is a race-free value copy), so scraping a running node is
// always safe.
func MetricsHandler(node int, snap func() Snapshot, ph *phases.Ring) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WriteBuildInfo(w, node)
		WritePrometheus(w, node, snap(), ph)
	})
}

// NewMetricsMux builds the full per-rank observability mux cmd/lotsnode
// serves: /metrics (counters, phases, build info) plus the standard
// net/http/pprof surface under /debug/pprof/ — profiling a live rank
// needs no extra flag or port. Registration is explicit (not the
// pprof package's DefaultServeMux side effect) so the surface is
// testable and nothing else leaks onto the node's listener.
func NewMetricsMux(node int, snap func() Snapshot, ph *phases.Ring) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", MetricsHandler(node, snap, ph))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
