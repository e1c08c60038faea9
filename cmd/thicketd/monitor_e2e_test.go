package main

import (
	"encoding/json"
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

// leakRule is the heap-growth alert the monitor e2e drives: fire after
// three consecutive windows where heap in-use grows faster than
// 8 MiB/s over a 3-tick lookback.
func leakRule() thicket.AlertRule {
	return thicket.AlertRule{
		Name: "heap-growth", Kind: monitor.KindRate,
		Metric: monitor.SeriesHeapInuse, Op: ">", Value: 8 << 20,
		WindowTicks: 3, ForTicks: 3,
	}
}

// TestEndToEndMonitorAlertHistory is the acceptance path of the
// self-monitoring stack, assembled exactly as serve() wires it: a
// sampler with a heap-growth rule and a monitor store, fed an injected
// leak, must (1) raise the alert at /debug/alerts, (2) bump the alert
// counter and firing gauge on /metrics, (3) expose the heap series at
// /debug/monitor, and (4) flush the incident into the monitor store,
// where thicket's ordinary stats path aggregates the heap/GC columns
// and the metadata records which samples had the alert firing.
func TestEndToEndMonitorAlertHistory(t *testing.T) {
	reg := telemetry.NewRegistry()
	monPath := filepath.Join(t.TempDir(), "monitor.tks")
	mon, err := thicket.NewMonitor(thicket.MonitorOptions{
		Interval: time.Second,
		Registry: reg,
		Rules:    []thicket.AlertRule{leakRule()},
		History: thicket.MonitorHistoryOptions{
			StorePath: monPath,
			Meta:      map[string]thicket.Value{"addr": thicket.Str("test:0")},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mon.SetInjectedLeak(32 << 20) // 32 MiB retained per 1s virtual tick

	st, err := thicket.OpenStore(writeStore(t))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	th, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	srv := thicket.NewServer(th, st, thicket.ServerOptions{Registry: reg, Monitor: mon})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Drive the sampler on a virtual clock: the leak retains 32 MiB per
	// 1s tick, so the 3-tick windowed rate reads ~32 MiB/s > 8 MiB/s.
	// Rate rules judge from tick WindowTicks+1 (=4); three consecutive
	// breaches fire at tick 6.
	for i := int64(1); i <= 8; i++ {
		mon.Tick(time.Unix(i, 0))
	}
	defer mon.SetInjectedLeak(0)

	// (1) The alert is live at /debug/alerts...
	var alerts monitor.AlertsSnapshot
	getJSON(t, ts, "/debug/alerts", &alerts)
	if len(alerts.Firing) != 1 || alerts.Firing[0] != "heap-growth" {
		t.Fatalf("firing = %v, want [heap-growth]", alerts.Firing)
	}
	fired := false
	for _, tr := range alerts.Transitions {
		if tr.Rule == "heap-growth" && tr.Firing && tr.Tick == 6 {
			fired = true
		}
	}
	if !fired {
		t.Fatalf("no heap-growth firing transition at tick 6: %+v", alerts.Transitions)
	}

	// (2) ...and counted on /metrics.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`thicket_monitor_alerts_total{rule="heap-growth"} 1`,
		"thicket_monitor_alerts_firing 1",
		"thicket_monitor_samples_total 8",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// (3) The heap series the rule judged is visible at /debug/monitor.
	var win monitor.WindowSnapshot
	getJSON(t, ts, "/debug/monitor?metrics="+monitor.SeriesHeapInuse, &win)
	ser, ok := win.Series[monitor.SeriesHeapInuse]
	if !ok || len(ser.Points) != 8 {
		t.Fatalf("heap series missing or short: %+v", win.Series)
	}
	if ser.Max-ser.Min < 100<<20 {
		t.Errorf("heap series did not record the leak: min %g max %g", ser.Min, ser.Max)
	}

	// (4) Shutdown flushes the tail; the monitor store is then a regular
	// ensemble store the stats path aggregates.
	if err := mon.Close(); err != nil {
		t.Fatal(err)
	}
	monSt, err := thicket.OpenStore(monPath)
	if err != nil {
		t.Fatal(err)
	}
	defer monSt.Close()
	monTh, err := monSt.Load()
	if err != nil {
		t.Fatal(err)
	}
	if monTh.NumProfiles() != 8 {
		t.Fatalf("monitor store holds %d profiles, want 8", monTh.NumProfiles())
	}
	alertsCol, err := monTh.Metadata.ColumnByName(monitor.MetaAlerts)
	if err != nil {
		t.Fatalf("monitor store metadata missing alerts column: %v", err)
	}
	firingRows := 0
	for r := 0; r < monTh.Metadata.NRows(); r++ {
		if alertsCol.At(r) == thicket.Str("heap-growth") {
			firingRows++
		}
	}
	if firingRows != 3 { // ticks 6, 7, 8 sampled while firing
		t.Errorf("%d samples recorded the firing alert, want 3", firingRows)
	}
	// `thicket stats` over the store: heap and GC columns aggregate.
	cols := []thicket.ColKey{
		{monitor.SeriesHeapInuse},
		{monitor.SeriesGCCycles},
	}
	if err := monTh.AggregateStats(cols, []string{"mean", "max"}); err != nil {
		t.Fatal(err)
	}
	if monTh.Stats.NRows() == 0 {
		t.Fatal("stats over the monitor store produced no rows")
	}
	statCol, err := monTh.Stats.ColumnByName(monitor.SeriesHeapInuse + "_max")
	if err != nil {
		t.Fatalf("stats missing heap max column: %v", err)
	}
	if v, ok := statCol.At(0).AsFloat(); !ok || v < float64(100<<20) {
		t.Errorf("aggregated heap max %v does not reflect the leak", statCol.At(0))
	}
}

// TestEndToEndMonitorCleanRunQuiet is the other half of the contract:
// the same rule set with no injected leak must fire nothing over the
// same virtual horizon.
func TestEndToEndMonitorCleanRunQuiet(t *testing.T) {
	reg := telemetry.NewRegistry()
	mon, err := thicket.NewMonitor(thicket.MonitorOptions{
		Interval: time.Second,
		Registry: reg,
		Rules:    []thicket.AlertRule{leakRule()},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 8; i++ {
		mon.Tick(time.Unix(i, 0))
	}
	alerts := mon.Alerts()
	if len(alerts.Firing) != 0 || len(alerts.Transitions) != 0 {
		t.Fatalf("clean run raised alerts: %+v", alerts)
	}
}

// getJSON fetches a debug endpoint and decodes it.
func getJSON(t *testing.T, ts *httptest.Server, path string, out any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s answered %d: %s", path, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, out); err != nil {
		t.Fatalf("%s: %v\n%s", path, err, body)
	}
}
