package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	thicket "repro"
	"repro/internal/monitor"
	"repro/internal/telemetry"
)

// TestEndToEndBaselineAlertSelfProfile is the acceptance path of the
// observability stack, assembled as serve() wires it: synthetic load
// with one artificially slowed endpoint must (1) fire the monitor's
// latency-baseline rule for that endpoint at /debug/alerts and bump the
// rule's alert counter in /metrics, (2) get the slow request's trace
// retained by the tail sampler, whose judge is the monitor's IsSlow,
// (3) land that trace in the self-profile ensemble store, which
// (4) thicket then opens and queries like any other performance forest,
// returning the slow call path. The monitor ticks at synthetic
// instants, so no wall clock is involved.
func TestEndToEndBaselineAlertSelfProfile(t *testing.T) {
	prevEnabled := thicket.EnableTelemetry(true)
	defer thicket.EnableTelemetry(prevEnabled)

	reg := telemetry.NewRegistry()
	mon, err := thicket.NewMonitor(thicket.MonitorOptions{Registry: reg, Rules: []thicket.AlertRule{{
		Name: "http-latency", Kind: monitor.KindBaseline, Metric: "thicket_http_request_seconds",
		Value: 3, Factor: 1.5, MinSamples: 2, ForTicks: 1, ClearTicks: 1,
		// µs loopback jitter (scheduler, GC) sits below this noise
		// floor; the injected 25ms clears it fivefold.
		MinDeltaS: 0.005,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	col := &thicket.TraceCollector{Policy: &thicket.TracePolicy{
		HeadProbability: 0, // only baseline-relative slowness retains
		Judge:           mon.IsSlow,
	}}
	prevCol := thicket.SetTraceCollector(col)
	defer thicket.SetTraceCollector(prevCol)

	st, err := thicket.OpenStore(writeStore(t))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	th, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	srv := thicket.NewServer(th, st, thicket.ServerOptions{
		Registry: reg,
		Trace:    col,
		Monitor:  mon,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	selfPath := filepath.Join(t.TempDir(), "self.tks")
	sp, err := thicket.NewSelfProfiler(thicket.SelfProfileOptions{
		StorePath: selfPath,
		Collector: col,
		Interval:  time.Hour, // flushed explicitly below
	})
	if err != nil {
		t.Fatal(err)
	}

	const endpoint = "/api/info"
	hit := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			resp, err := http.Get(ts.URL + endpoint)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}

	// Warm the per-endpoint baseline over fast intervals.
	for i := int64(1); i <= monitor.BaselineWarmup; i++ {
		hit(5)
		mon.Tick(time.Unix(i, 0))
		if tr := mon.Alerts().Transitions; len(tr) != 0 {
			t.Fatalf("warmup fired %+v", tr)
		}
	}

	// Inject the regression: requests now sleep well past the baseline.
	srv.SetInjectedLatency(endpoint, 25*time.Millisecond)
	hit(3)
	mon.Tick(time.Unix(monitor.BaselineWarmup+1, 0))
	srv.SetInjectedLatency(endpoint, 0)

	// (1) The baseline rule fires for the slowed endpoint at
	// /debug/alerts...
	var alerts monitor.AlertsSnapshot
	getJSON(t, ts, "/debug/alerts", &alerts)
	if len(alerts.Transitions) != 1 {
		t.Fatalf("transitions = %+v, want one firing for %s", alerts.Transitions, endpoint)
	}
	if tr := alerts.Transitions[0]; tr.Rule != "http-latency" || tr.Target != endpoint || !tr.Firing {
		t.Fatalf("transition = %+v, want http-latency firing for %s", tr, endpoint)
	}
	// ...and bumps the rule's alert counter in /metrics.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), `thicket_monitor_alerts_total{rule="http-latency"} 1`) {
		t.Error("alert counter missing from /metrics")
	}

	// (2)+(3) The slow traces were retained and flush into the store.
	n, err := sp.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no slow traces exported to the self-profile store")
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}

	// (4) The self-profile store is a regular ensemble store: thicket
	// opens it, finds the slowed endpoint in the metadata, and a
	// call-path query returns the slow request span.
	selfSt, err := thicket.OpenStore(selfPath)
	if err != nil {
		t.Fatal(err)
	}
	defer selfSt.Close()
	selfTh, err := selfSt.Load()
	if err != nil {
		t.Fatal(err)
	}
	endpointCol, err := selfTh.Metadata.ColumnByName("endpoint")
	if err != nil {
		t.Fatalf("self-profile metadata missing endpoint column: %v", err)
	}
	found := false
	for r := 0; r < selfTh.Metadata.NRows(); r++ {
		if endpointCol.At(r) == thicket.Str("http "+endpoint) {
			found = true
		}
	}
	if !found {
		t.Fatalf("no self-profile row for http %s", endpoint)
	}
	out, err := selfTh.QueryString(". name $= " + strings.ReplaceAll(endpoint, "/", ":"))
	if err != nil {
		t.Fatal(err)
	}
	if out.Tree.Len() == 0 {
		t.Error("call-path query over the self-profile store kept no nodes")
	}
	node := out.Tree.Nodes()[0]
	if !strings.HasSuffix(node.Name(), strings.ReplaceAll(endpoint, "/", ":")) {
		t.Errorf("slow call path root = %q", node.Name())
	}
}
