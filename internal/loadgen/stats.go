package loadgen

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
	"time"
)

// ClassStats aggregates one SLO class's measured outcomes.
type ClassStats struct {
	Requests    int     `json:"requests"`
	Errors      int     `json:"errors"`
	Ingests     int     `json:"ingests"`
	IngestShed  int     `json:"ingest_shed,omitempty"`
	AchievedRPS float64 `json:"achieved_rps"`
	P50US       int64   `json:"p50_us"`
	P90US       int64   `json:"p90_us"`
	P99US       int64   `json:"p99_us"`
	MeanUS      int64   `json:"mean_us"`
	MaxUS       int64   `json:"max_us"`
	TargetP99US int64   `json:"target_p99_us,omitempty"`
	OverBudget  bool    `json:"over_budget,omitempty"`
}

// ClientStats aggregates one client's schedule and measured outcomes.
type ClientStats struct {
	Class string `json:"class"`
	// Offered/Admitted/Shed are deterministic (schedule-derived);
	// Completed/Errors/AchievedRPS are measured.
	Offered     int     `json:"offered"`
	Admitted    int     `json:"admitted"`
	Shed        int     `json:"shed"`
	Completed   int     `json:"completed"`
	Errors      int     `json:"errors"`
	OfferedRPS  float64 `json:"offered_rps"`
	AchievedRPS float64 `json:"achieved_rps"`
}

// WorkloadReport is the deterministic half of a report: everything in
// it derives from the Spec and seed alone, so two runs with the same
// seed must produce byte-identical WorkloadReport JSON (the determinism
// test pins exactly this).
type WorkloadReport struct {
	Seed           int64          `json:"seed"`
	DurationNS     int64          `json:"duration_ns"`
	Requests       int            `json:"requests"`
	OfferedRPS     float64        `json:"offered_rps"`
	ScheduleSHA256 string         `json:"schedule_sha256"`
	Offered        map[string]int `json:"offered"`
	Shed           map[string]int `json:"shed"`
	Spec           Spec           `json:"spec"`
}

// MeasuredReport is the wall-clock half: latencies, errors, achieved
// throughput, and the fairness index. Nothing here participates in the
// determinism contract.
type MeasuredReport struct {
	StartedUnixNS int64                  `json:"started_unix_ns"`
	ElapsedNS     int64                  `json:"elapsed_ns"`
	Requests      int                    `json:"requests"`
	Errors        int                    `json:"errors"`
	AchievedRPS   float64                `json:"achieved_rps"`
	FairnessJain  float64                `json:"fairness_jain"`
	Classes       map[string]ClassStats  `json:"classes"`
	Clients       map[string]ClientStats `json:"clients"`
	IngestSkipped int                    `json:"ingest_skipped,omitempty"`
	// IngestShed totals ingest submissions rejected with 429 — offered
	// write load the server deliberately shed to protect query traffic.
	IngestShed int `json:"ingest_shed,omitempty"`
	// Anomalies counts the firing transitions of the self-monitor's
	// latency-baseline rules (self-host mode only).
	Anomalies int `json:"anomalies"`
	// RetainedTraces counts the traces the tail sampler kept (self-host
	// mode only).
	RetainedTraces int `json:"retained_traces,omitempty"`
	// Plan summarizes the compiled-query work the run induced, sourced
	// from the live /debug/querylog endpoint (self-host mode only).
	Plan *PlanEfficiency `json:"plan,omitempty"`
	// Resources summarizes the server's runtime footprint over the run,
	// scraped from the self-monitor's /debug/monitor ring (self-host
	// mode only).
	Resources *ResourceSummary `json:"resources,omitempty"`
}

// PlanEfficiency is the run's aggregate plan-tree accounting: how much
// of the offered scan work the pushdown avoided, and how many queries
// were canceled or timed out under load.
type PlanEfficiency struct {
	Queries           int64   `json:"queries"`
	Canceled          int64   `json:"canceled"`
	TimedOut          int64   `json:"timed_out"`
	Segments          int64   `json:"segments"`
	SegmentsPruned    int64   `json:"segments_pruned"`
	SegmentsPrunedPct float64 `json:"segments_pruned_pct"`
	BlocksScanned     int64   `json:"blocks_scanned"`
	BlocksSkipped     int64   `json:"blocks_skipped"`
	BlocksSkippedPct  float64 `json:"blocks_skipped_pct"`
	RowsMaterialized  int64   `json:"rows_materialized"`
}

// ResourceSummary is the run's runtime-resource footprint: what the
// server's own continuous monitor observed while serving the replay.
type ResourceSummary struct {
	Samples       int      `json:"samples"`
	PeakHeapBytes int64    `json:"peak_heap_bytes"`
	MaxGoroutines int      `json:"max_goroutines"`
	GCPauseTotalS float64  `json:"gc_pause_total_s"`
	GCCPUMeanPct  float64  `json:"gc_cpu_mean_pct"`
	AlertsFired   int      `json:"alerts_fired"`
	AlertsFiring  []string `json:"alerts_firing,omitempty"`
}

// Report is the full machine-readable result (BENCH_loadgen.json).
type Report struct {
	Harness  string         `json:"harness"`
	Workload WorkloadReport `json:"workload"`
	Measured MeasuredReport `json:"measured"`
}

// percentileUS returns the q-quantile (0 < q <= 1) of ds by nearest
// rank, in microseconds. ds must be sorted ascending.
func percentileUS(ds []time.Duration, q float64) int64 {
	if len(ds) == 0 {
		return 0
	}
	i := int(q*float64(len(ds)) + 0.9999999) // ceil(q·n)
	if i < 1 {
		i = 1
	}
	if i > len(ds) {
		i = len(ds)
	}
	return ds[i-1].Microseconds()
}

// JainIndex is Jain's fairness index over per-entity allocations:
// (Σx)² / (n·Σx²). It is 1.0 when every entity gets the same share and
// approaches 1/n as one entity starves the rest. Zero-length or
// all-zero input yields 0.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// BuildReport folds a schedule and its measured outcomes into the full
// report. The fairness index is computed over each client's achieved
// completion rate normalized by its admitted offered rate — "of what
// you were promised, what fraction did you get" — so a client that was
// deliberately shed by admission control is not counted unfair.
func BuildReport(sched *Schedule, m *Measured) *Report {
	durS := sched.Spec.Duration.Seconds()
	classes := map[string]ClassStats{}
	classLats := map[string][]time.Duration{}
	clients := map[string]ClientStats{}

	for _, c := range sched.Spec.Clients {
		clients[c.Name] = ClientStats{
			Class:      c.Class,
			Offered:    sched.Offered[c.Name],
			Shed:       sched.Shed[c.Name],
			Admitted:   sched.Offered[c.Name] - sched.Shed[c.Name],
			OfferedRPS: float64(sched.Offered[c.Name]-sched.Shed[c.Name]) / durS,
		}
	}
	totalErrs, totalShed := 0, 0
	for _, s := range m.Samples {
		cs := classes[s.Class]
		cs.Requests++
		if s.Err {
			cs.Errors++
			totalErrs++
		}
		if s.Ingest {
			cs.Ingests++
			if s.Shed {
				cs.IngestShed++
				totalShed++
			}
		}
		classes[s.Class] = cs
		// Shed submissions return immediately; folding their latency into
		// the class percentiles would flatter the tail.
		if !s.Err && !s.Shed {
			classLats[s.Class] = append(classLats[s.Class], s.Latency)
		}
		cl := clients[s.Client]
		cl.Completed++
		if s.Err {
			cl.Errors++
		}
		clients[s.Client] = cl
	}

	targets := map[string]time.Duration{}
	for _, c := range sched.Spec.Classes {
		targets[c.Name] = c.TargetP99
	}
	elapsedS := m.Elapsed.Seconds()
	if elapsedS <= 0 {
		elapsedS = durS
	}
	for name, cs := range classes {
		lats := classLats[name]
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		cs.P50US = percentileUS(lats, 0.50)
		cs.P90US = percentileUS(lats, 0.90)
		cs.P99US = percentileUS(lats, 0.99)
		if n := len(lats); n > 0 {
			var sum time.Duration
			for _, d := range lats {
				sum += d
			}
			cs.MeanUS = (sum / time.Duration(n)).Microseconds()
			cs.MaxUS = lats[n-1].Microseconds()
		}
		cs.AchievedRPS = float64(cs.Requests-cs.Errors) / elapsedS
		if t := targets[name]; t > 0 {
			cs.TargetP99US = t.Microseconds()
			cs.OverBudget = cs.P99US > t.Microseconds()
		}
		classes[name] = cs
	}

	var shares []float64
	for name := range clients {
		cl := clients[name]
		cl.AchievedRPS = float64(cl.Completed-cl.Errors) / elapsedS
		clients[name] = cl
		if cl.Admitted > 0 {
			shares = append(shares, float64(cl.Completed-cl.Errors)/float64(cl.Admitted))
		}
	}

	return &Report{
		Harness: "thicket-loadgen",
		Workload: WorkloadReport{
			Seed:           sched.Spec.Seed,
			DurationNS:     int64(sched.Spec.Duration),
			Requests:       len(sched.Events),
			OfferedRPS:     float64(len(sched.Events)) / durS,
			ScheduleSHA256: sched.Digest(),
			Offered:        sched.Offered,
			Shed:           sched.Shed,
			Spec:           sched.Spec,
		},
		Measured: MeasuredReport{
			StartedUnixNS: m.Started.UnixNano(),
			ElapsedNS:     int64(m.Elapsed),
			Requests:      len(m.Samples),
			Errors:        totalErrs,
			AchievedRPS:   float64(len(m.Samples)-totalErrs) / elapsedS,
			FairnessJain:  JainIndex(shares),
			Classes:       classes,
			Clients:       clients,
			IngestSkipped: m.IngestSkipped,
			IngestShed:    totalShed,
		},
	}
}

// RenderText writes the human-readable result tables: one per-class
// latency table and one per-client throughput/fairness table.
func (r *Report) RenderText(w io.Writer) {
	fmt.Fprintf(w, "thicket-loadgen  seed=%d  duration=%s  scheduled=%d  measured=%d  errors=%d\n",
		r.Workload.Seed, time.Duration(r.Workload.DurationNS), r.Workload.Requests,
		r.Measured.Requests, r.Measured.Errors)
	fmt.Fprintf(w, "offered %.1f req/s  achieved %.1f req/s  fairness(Jain) %.4f\n",
		r.Workload.OfferedRPS, r.Measured.AchievedRPS, r.Measured.FairnessJain)
	if r.Measured.IngestShed > 0 {
		fmt.Fprintf(w, "ingest backpressure: %d submissions shed with 429\n", r.Measured.IngestShed)
	}
	if p := r.Measured.Plan; p != nil && p.Queries > 0 {
		fmt.Fprintf(w, "plan efficiency: %d queries, %.1f%% segments pruned, %.1f%% blocks skipped, %d canceled (%d timed out)\n",
			p.Queries, p.SegmentsPrunedPct, p.BlocksSkippedPct, p.Canceled, p.TimedOut)
	}
	fmt.Fprintln(w)

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "CLASS\tREQS\tERRS\tp50\tp90\tp99\tmean\tmax\tbudget\t")
	for _, name := range sortedKeys(r.Measured.Classes) {
		cs := r.Measured.Classes[name]
		budget := "-"
		if cs.TargetP99US > 0 {
			budget = fmt.Sprintf("%s", time.Duration(cs.TargetP99US)*time.Microsecond)
			if cs.OverBudget {
				budget += " OVER"
			}
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%s\t%s\t%s\t%s\t%s\t%s\t\n",
			name, cs.Requests, cs.Errors,
			us(cs.P50US), us(cs.P90US), us(cs.P99US), us(cs.MeanUS), us(cs.MaxUS), budget)
	}
	tw.Flush()
	fmt.Fprintln(w)
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "CLIENT\tCLASS\tOFFERED\tSHED\tDONE\tERRS\toffered r/s\tachieved r/s\t")
	for _, name := range sortedKeys(r.Measured.Clients) {
		cl := r.Measured.Clients[name]
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\t%.1f\t%.1f\t\n",
			name, cl.Class, cl.Offered, cl.Shed, cl.Completed, cl.Errors,
			cl.OfferedRPS, cl.AchievedRPS)
	}
	tw.Flush()
	if res := r.Measured.Resources; res != nil && res.Samples > 0 {
		fmt.Fprintf(w, "\nlatency baselines: %d anomalies over %d monitor samples, %d retained traces\n",
			r.Measured.Anomalies, res.Samples, r.Measured.RetainedTraces)
		fmt.Fprintf(w, "resources: peak heap %.1f MiB, GC pause %.2fms total, GC CPU %.2f%%, max %d goroutines, %d alerts fired\n",
			float64(res.PeakHeapBytes)/(1<<20), res.GCPauseTotalS*1e3,
			res.GCCPUMeanPct, res.MaxGoroutines, res.AlertsFired)
	}
}

func us(v int64) string {
	return (time.Duration(v) * time.Microsecond).String()
}

func sortedKeys[M map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
