package monitor

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/dataframe"
	"repro/internal/plan"
	"repro/internal/selfprofile"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// slowTree ends one request tree, with a child so the exported profile
// has a call path to query.
func slowTree(t *testing.T, endpoint, traceID, status string) {
	t.Helper()
	root := telemetry.StartOp(endpoint)
	root.SetTraceID(traceID)
	if status != "" {
		root.SetAttr("status", status)
	}
	child := root.StartChild("store.Load")
	child.End()
	root.End()
}

// traceFixture builds a sampler from opts that drains a fresh collector,
// installed once New has made IsSlow its judge, and returns the
// sampler's registry. The sampler's one rule is an http-latency
// baseline warmed on instant requests to the endpoints the tests end
// trees for, so every such tree ended afterwards is judged slow.
func traceFixture(t *testing.T, opts Options) (*Sampler, *telemetry.Registry) {
	t.Helper()
	prevOn := telemetry.SetEnabled(true)
	t.Cleanup(func() { telemetry.SetEnabled(prevOn) })
	reg := newTestRegistry()
	col := &telemetry.Collector{MaxTrees: 64, Policy: &telemetry.Policy{}}
	opts.Registry, opts.Traces = reg, col
	opts.Rules = []Rule{{
		Name: "http-latency", Kind: KindBaseline, Metric: testFamily,
		Value: 3, Factor: 1.5, MinSamples: 1, ForTicks: 1,
	}}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	var hists []*telemetry.Histogram
	for _, ep := range []string{"/api/query", "/api/stats", "/api/info"} {
		hists = append(hists, reg.Histogram(testFamily, "test", "endpoint", ep))
	}
	for i := int64(1); i <= BaselineWarmup; i++ {
		for _, h := range hists {
			h.Observe(0)
		}
		s.Tick(unix(i))
	}
	prev := telemetry.SetCollector(col)
	t.Cleanup(func() { telemetry.SetCollector(prev) })
	return s, reg
}

func TestTraceDrainCreatesAndAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "self.thicket")
	s, reg := traceFixture(t, Options{History: HistoryOptions{
		TraceStorePath: path,
		Meta:           map[string]dataframe.Value{"addr": dataframe.Str("127.0.0.1:0")},
	}})
	exported := reg.Counter("thicket_selfprofile_exported_total", "")
	tick := int64(BaselineWarmup)
	drain := func() int64 {
		before := exported.Value()
		tick++
		s.Tick(unix(tick))
		return exported.Value() - before
	}

	// Nothing retained yet: no export, no file.
	if n := drain(); n != 0 || exported.Value() != 0 {
		t.Fatalf("empty drain exported %d (total %d)", n, exported.Value())
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("empty drain touched the store file")
	}

	// First batch creates the store.
	slowTree(t, "http /api/query", "4bf92f3577b34da6a3ce929d0e0e4736", "200")
	slowTree(t, "http /api/stats", "aaaa2f3577b34da6a3ce929d0e0e4736", "500")
	if n := drain(); n != 2 {
		t.Fatalf("first drain exported %d, want 2", n)
	}
	// Second batch appends to the existing store through the held handle.
	slowTree(t, "http /api/query", "bbbb2f3577b34da6a3ce929d0e0e4736", "200")
	if n := drain(); n != 1 {
		t.Fatalf("second drain exported %d, want 1", n)
	}
	// A repeat drain exports nothing new: TakeSlow drains each trace once.
	if n := drain(); n != 0 {
		t.Fatalf("repeat drain exported %d", n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
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
	if got := th.Metadata.NRows(); got != 3 {
		t.Fatalf("self-profile store holds %d profiles, want 3", got)
	}
	// The metadata rows carry the request identity columns.
	for _, col := range []string{selfprofile.MetaEndpoint, selfprofile.MetaTraceID, selfprofile.MetaTimestamp,
		selfprofile.MetaStatus, selfprofile.MetaReason, selfprofile.MetaDurNS, "addr", "source"} {
		if _, err := th.Metadata.ColumnByName(col); err != nil {
			t.Errorf("metadata lacks column %q: %v", col, err)
		}
	}
	// The slow call path is queryable like any ensemble: the store's own
	// spans answer call-path queries ('/' in endpoint names is rewritten
	// to ':' by the exporter).
	out, err := th.QueryString(`. name $= :api:query / *`)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range out.Tree.Nodes() {
		if n.Name() == "store.Load" {
			found = true
		}
	}
	if !found {
		t.Error("call-path query did not surface the store.Load child span")
	}
}

func TestTraceDrainStatusFallback(t *testing.T) {
	path := filepath.Join(t.TempDir(), "self.thicket")
	s, reg := traceFixture(t, Options{History: HistoryOptions{TraceStorePath: path}})
	slowTree(t, "http /api/info", "cccc2f3577b34da6a3ce929d0e0e4736", "")
	s.Tick(unix(BaselineWarmup + 1))
	if n := reg.Counter("thicket_selfprofile_exported_total", "").Value(); n != 1 {
		t.Fatalf("drain exported %d, want 1", n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
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
	col, err := th.Metadata.ColumnByName(selfprofile.MetaStatus)
	if err != nil {
		t.Fatal(err)
	}
	if v := col.At(0); v != dataframe.Int64(-1) {
		t.Errorf("status without attr = %v, want -1", v)
	}
}

func TestRunFinalTickDrainsTraces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "self.thicket")
	var sb strings.Builder
	s, _ := traceFixture(t, Options{
		Interval: time.Hour, // ticker never fires: only the final tick can drain
		Logger:   telemetry.NewDeterministicJSONLogger(&sb, slog.LevelDebug),
		History:  HistoryOptions{TraceStorePath: path},
	})
	slowTree(t, "http /api/query", "dddd2f3577b34da6a3ce929d0e0e4736", "200")

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); s.Run(ctx) }()
	cancel()
	<-done
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("final tick did not write the store: %v", err)
	}
	if !strings.Contains(sb.String(), `"component":"selfprofile"`) {
		t.Errorf("drain log missing component field: %s", sb.String())
	}
}

func TestNewValidatesTraceStore(t *testing.T) {
	if _, err := New(Options{Registry: newTestRegistry(), Rules: []Rule{},
		History: HistoryOptions{TraceStorePath: "x"}}); err == nil {
		t.Error("trace store without a collector accepted")
	}
	if _, err := New(Options{Registry: newTestRegistry(), Rules: []Rule{},
		Traces: &telemetry.Collector{}}); err == nil {
		t.Error("collector without a sampling policy accepted")
	}
	col := &telemetry.Collector{Policy: &telemetry.Policy{}}
	if _, err := New(Options{Registry: newTestRegistry(), Rules: []Rule{}, Traces: col}); err != nil {
		t.Fatal(err)
	}
	if col.Policy.Judge == nil {
		t.Error("New did not install IsSlow as the collector's judge")
	}
}

// BenchmarkSelfDataWindow measures what uptime costs a reader of the
// monitor store. It pushes n samples, 10 s apart (the default
// interval), through the monitor's history writer — 600 samples are 100
// minutes, 8,640 a day, 60,480 a week — and then times store.Open and a
// warm query for the last ten minutes (timestamp>=...). It reports the
// store's segment count next to both times. Writing the samples is not
// timed and takes most of the run (about 0.2 ms a sample on a 2-vCPU
// VM), so run it once, by hand:
//
//	go test -run '^$' -bench SelfDataWindow -benchtime 20x ./internal/monitor/
func BenchmarkSelfDataWindow(b *testing.B) {
	const interval = int64(10 * time.Second)
	for _, n := range []int{600, 8640, 60480} {
		// Written once per size: a sub-benchmark body runs more than once.
		path := filepath.Join(b.TempDir(), fmt.Sprintf("monitor-%d.tks", n))
		h, err := newHistoryWriter(HistoryOptions{StorePath: path}, nil,
			telemetry.NewRegistry(), slog.New(slog.DiscardHandler))
		if err != nil {
			b.Fatal(err)
		}
		for i := 1; i <= n; i++ {
			sample := Sample{UnixNS: int64(i) * interval, Values: map[string]float64{"depth": float64(i)}}
			h.record(sample, int64(i), nil)
		}
		if err := h.close(); err != nil {
			b.Fatal(err)
		}
		if got := h.failures.Value(); got != 0 {
			b.Fatalf("%d samples failed to reach the store", got)
		}
		b.Run(fmt.Sprintf("samples=%d", n), func(b *testing.B) {
			st, err := store.Open(path)
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			window, err := plan.Compile([]string{fmt.Sprintf("%s>=%d", MetaTimestamp, int64(n-59)*interval)})
			if err != nil {
				b.Fatal(err)
			}
			query := func() {
				th, _, err := plan.ExecuteStore(st, window)
				if err != nil {
					b.Fatal(err)
				}
				if th.NumProfiles() != 60 {
					b.Fatalf("window holds %d samples, want 60", th.NumProfiles())
				}
			}
			query() // warm the column cache

			var openNS, queryNS time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				cold, err := store.Open(path)
				if err != nil {
					b.Fatal(err)
				}
				openNS += time.Since(start)
				cold.Close()
				start = time.Now()
				query()
				queryNS += time.Since(start)
			}
			b.ReportMetric(float64(st.NumSegments()), "segments")
			b.ReportMetric(float64(openNS.Nanoseconds())/1e6/float64(b.N), "open-ms")
			b.ReportMetric(float64(queryNS.Nanoseconds())/1e6/float64(b.N), "query-ms")
		})
	}
}
