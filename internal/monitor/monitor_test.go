package monitor

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/dataframe"
	"repro/internal/store"
	"repro/internal/telemetry"
)

func newTestRegistry() *telemetry.Registry { return telemetry.NewRegistry() }

func unix(sec int64) time.Time { return time.Unix(sec, 0) }

// TestSamplerRingAndWindow drives manual ticks and checks ring
// bounding, window restriction, and the ?metrics= filter.
func TestSamplerRingAndWindow(t *testing.T) {
	reg := newTestRegistry()
	g := reg.Gauge("test_gauge", "g")
	s, err := New(Options{Registry: reg, RingSize: 4, Rules: []Rule{}})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 6; i++ {
		g.Set(i)
		s.Tick(unix(i * 10))
	}
	w := s.Window(0, nil)
	if w.Samples != 4 {
		t.Fatalf("ring not bounded: %d samples, want 4", w.Samples)
	}
	if w.Ticks != 6 {
		t.Fatalf("ticks = %d, want 6", w.Ticks)
	}
	ser, ok := w.Series["test_gauge"]
	if !ok {
		t.Fatal("registry gauge missing from window")
	}
	// Ring kept ticks 3..6 → values 3..6.
	if ser.Min != 3 || ser.Max != 6 || ser.Last != 6 || ser.Mean != 4.5 {
		t.Fatalf("series stats = %+v, want min 3 max 6 last 6 mean 4.5", ser)
	}
	if len(ser.Points) != 4 {
		t.Fatalf("points = %d, want 4", len(ser.Points))
	}

	// A 10s window holds the newest sample (t=60) plus t>=50.
	w = s.Window(10*time.Second, nil)
	if got := len(w.Series["test_gauge"].Points); got != 2 {
		t.Fatalf("10s window points = %d, want 2", got)
	}

	// The metrics filter is a substring match.
	w = s.Window(0, []string{"goroutine"})
	if _, ok := w.Series["test_gauge"]; ok {
		t.Fatal("metrics filter leaked test_gauge")
	}
	if _, ok := w.Series[SeriesGoroutines]; !ok {
		t.Fatal("metrics filter dropped go_goroutines")
	}
}

// TestRuntimeSeriesPresent: every gauge-like runtime series appears on
// the first tick, windowed derivations on the second.
func TestRuntimeSeriesPresent(t *testing.T) {
	s, err := New(Options{Registry: newTestRegistry(), Rules: []Rule{}})
	if err != nil {
		t.Fatal(err)
	}
	s.Tick(unix(1))
	w := s.Window(0, nil)
	for _, name := range []string{
		SeriesGoroutines, SeriesHeapInuse, SeriesMemTotal,
		SeriesHeapAllocTotal, SeriesGCCycles, SeriesGCPauseTotal,
	} {
		if _, ok := w.Series[name]; !ok {
			t.Errorf("first tick missing %s", name)
		}
	}
	if _, ok := w.Series[SeriesHeapAllocRate]; ok {
		t.Error("alloc rate emitted on the first tick (no previous sample)")
	}
	s.Tick(unix(2))
	w = s.Window(0, nil)
	for _, name := range []string{
		SeriesHeapAllocRate, SeriesGCCPUFraction,
		SeriesGCPauseP99, SeriesSchedLatencyP99,
	} {
		ser, ok := w.Series[name]
		if !ok {
			t.Errorf("second tick missing %s", name)
			continue
		}
		if ser.Last < 0 || ser.Last != ser.Last {
			t.Errorf("%s = %v, want non-negative finite", name, ser.Last)
		}
	}
}

// TestHistogramDerivations: histogram families surface as _count
// (cumulative + rate) and a windowed mean.
func TestHistogramDerivations(t *testing.T) {
	reg := newTestRegistry()
	h := reg.Histogram("test_seconds", "h")
	s, err := New(Options{Registry: reg, Rules: []Rule{}})
	if err != nil {
		t.Fatal(err)
	}
	h.Observe(0.5)
	h.Observe(0.5)
	s.Tick(unix(1))
	h.Observe(0.1)
	h.Observe(0.3)
	s.Tick(unix(2))
	w := s.Window(0, []string{"test_seconds"})
	if got := w.Series["test_seconds_count"].Last; got != 4 {
		t.Fatalf("count = %v, want 4", got)
	}
	if got := w.Series["test_seconds_count"+RateSuffix].Last; got != 2 {
		t.Fatalf("count rate = %v, want 2/s", got)
	}
	mean := w.Series["test_seconds_mean_s"].Last
	if mean < 0.19 || mean > 0.21 {
		t.Fatalf("windowed mean = %v, want ~0.2", mean)
	}
}

// TestCacheHitRatioOnlyUnderTraffic: the derived hit ratio appears
// only on windows that saw lookups, so the collapse rule cannot fire
// on an idle server.
func TestCacheHitRatioOnlyUnderTraffic(t *testing.T) {
	reg := newTestRegistry()
	hits := reg.Counter("thicket_response_cache_hits_total", "hits")
	misses := reg.Counter("thicket_response_cache_misses_total", "misses")
	s, err := New(Options{Registry: reg, Rules: []Rule{}})
	if err != nil {
		t.Fatal(err)
	}
	s.Tick(unix(1))
	s.Tick(unix(2)) // idle window
	w := s.Window(0, nil)
	if _, ok := w.Series["thicket_response_cache_hit_ratio"]; ok {
		t.Fatal("hit ratio emitted for an idle window")
	}
	hits.Add(3)
	misses.Add(1)
	s.Tick(unix(3))
	w = s.Window(0, nil)
	if got := w.Series["thicket_response_cache_hit_ratio"].Last; got != 0.75 {
		t.Fatalf("hit ratio = %v, want 0.75", got)
	}
}

// TestAlertLifecycleOnSampler wires a rule through the full sampler:
// firing increments the per-rule counter and the firing gauge, the
// transition log records both edges, and /debug/alerts reflects state.
func TestAlertLifecycleOnSampler(t *testing.T) {
	reg := newTestRegistry()
	g := reg.Gauge("depth", "queue depth")
	s, err := New(Options{Registry: reg, Rules: []Rule{{
		Name: "deep", Kind: KindThreshold, Metric: "depth",
		Op: ">", Value: 100, ForTicks: 2, ClearTicks: 2,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	g.Set(500)
	s.Tick(unix(1))
	a := s.Alerts()
	if len(a.Firing) != 0 {
		t.Fatalf("fired before ForTicks: %+v", a.Firing)
	}
	s.Tick(unix(2))
	a = s.Alerts()
	if len(a.Firing) != 1 || a.Firing[0] != "deep" {
		t.Fatalf("firing = %+v, want [deep]", a.Firing)
	}
	if got := reg.Counter("thicket_monitor_alerts_total", "", "rule", "deep").Value(); got != 1 {
		t.Fatalf("alerts_total = %d, want 1", got)
	}
	if got := reg.Gauge("thicket_monitor_alerts_firing", "").Value(); got != 1 {
		t.Fatalf("firing gauge = %d, want 1", got)
	}
	g.Set(0)
	s.Tick(unix(3))
	s.Tick(unix(4))
	a = s.Alerts()
	if len(a.Firing) != 0 {
		t.Fatalf("still firing after recovery: %+v", a.Firing)
	}
	if got := reg.Gauge("thicket_monitor_alerts_firing", "").Value(); got != 0 {
		t.Fatalf("firing gauge = %d, want 0", got)
	}
	if len(a.Transitions) != 2 {
		t.Fatalf("transition log = %+v, want fire+resolve", a.Transitions)
	}
	if a.Rules[0].FiredTotal != 1 || a.Rules[0].Firing {
		t.Fatalf("rule status = %+v", a.Rules[0])
	}
}

// TestInjectedLeakGrowsHeap: the leak hook must actually retain heap
// so the heap-growth rule sees real runtime numbers.
func TestInjectedLeakGrowsHeap(t *testing.T) {
	s, err := New(Options{Registry: newTestRegistry(), Rules: []Rule{{
		Name: "leak", Kind: KindRate, Metric: SeriesHeapInuse,
		Op: ">", Value: 4 << 20, WindowTicks: 2, ForTicks: 2,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	s.SetInjectedLeak(16 << 20) // 16 MiB per 1s-spaced tick → 16 MiB/s
	for i := int64(1); i <= 6; i++ {
		s.Tick(unix(i))
	}
	a := s.Alerts()
	if len(a.Firing) != 1 || a.Firing[0] != "leak" {
		t.Fatalf("injected leak did not fire the heap-growth rule: %+v", a)
	}
	s.SetInjectedLeak(0)
}

// TestHistoryFlush round-trips the sampler's history store: each sample
// is acked by the store's ingester, Close flushes them into segments,
// and the store reloads with the monitor's metadata and perf columns.
func TestHistoryFlush(t *testing.T) {
	path := filepath.Join(t.TempDir(), "monitor.tks")
	reg := newTestRegistry()
	g := reg.Gauge("depth", "queue depth")
	s, err := New(Options{
		Registry: reg,
		Rules: []Rule{{
			Name: "deep", Kind: KindThreshold, Metric: "depth",
			Op: ">", Value: 100, ForTicks: 1,
		}},
		History: HistoryOptions{
			StorePath: path,
			Meta:      map[string]dataframe.Value{"host": dataframe.Str("test")},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.HistoryPath() != path {
		t.Fatalf("HistoryPath = %q", s.HistoryPath())
	}
	for i := int64(1); i <= 4; i++ {
		if i == 3 {
			g.Set(500) // alert fires on tick 3 (ForTicks 1)
		}
		s.Tick(unix(i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("thicket_ingest_acked_total", "", "store", path).Value(); got != 4 {
		t.Fatalf("acked = %d, want 4 (one per sample)", got)
	}

	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	th, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if th.NumProfiles() != 4 {
		t.Fatalf("profiles = %d, want 4 (one per sample)", th.NumProfiles())
	}
	for _, col := range []string{MetaTimestamp, MetaTick, MetaAlerts, MetaAlertsFiring, MetaSource, "host"} {
		if _, err := th.Metadata.Column(dataframe.ColKey{col}); err != nil {
			t.Errorf("metadata column %q missing: %v", col, err)
		}
	}
	for _, col := range []string{"depth", SeriesGoroutines, SeriesHeapInuse} {
		if _, err := th.PerfData.Column(dataframe.ColKey{col}); err != nil {
			t.Errorf("perf column %q missing: %v", col, err)
		}
	}
	// Timestamps are monotonically increasing — the property the store's
	// delta coding and zone maps exploit.
	tsCol, err := th.Metadata.Column(dataframe.ColKey{MetaTimestamp})
	if err != nil {
		t.Fatal(err)
	}
	var prev int64 = -1
	firing := 0
	alertsCol, _ := th.Metadata.Column(dataframe.ColKey{MetaAlertsFiring})
	for i := 0; i < th.Metadata.NRows(); i++ {
		ts := tsCol.At(i).Int()
		if ts <= prev {
			t.Fatalf("timestamps not monotonic at row %d: %d after %d", i, ts, prev)
		}
		prev = ts
		firing += int(alertsCol.At(i).Int())
	}
	if firing == 0 {
		t.Fatal("no flushed sample records the firing alert")
	}
}

// TestRunWallClock: Run ticks on its own, and cancellation takes a
// final sample before returning.
func TestRunWallClock(t *testing.T) {
	s, err := New(Options{
		Registry: newTestRegistry(),
		Interval: 5 * time.Millisecond,
		Rules:    []Rule{},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { s.Run(ctx); close(done) }()
	deadline := time.Now().Add(2 * time.Second)
	for s.Window(0, nil).Samples < 3 {
		if time.Now().After(deadline) {
			t.Fatal("sampler took no samples")
		}
		time.Sleep(time.Millisecond)
	}
	before := s.Window(0, nil).Ticks
	cancel()
	<-done
	if got := s.Window(0, nil).Ticks; got < before+1 {
		t.Fatalf("no final shutdown sample: ticks %d -> %d", before, got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
