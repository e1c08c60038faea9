package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	thicket "repro"
	"repro/internal/loadgen"
	"repro/internal/monitor"
)

// TestE2EClosedLoop drives the full feedback loop under synthetic
// traffic: a seeded mixed workload against a self-hosted thicketd, a
// latency regression injected into /api/stats mid-run, and the
// assertion chain: the monitor's http-latency baseline rule fires for
// the slowed endpoint at /debug/alerts, bumps
// thicket_monitor_alerts_total in /metrics, and the retained slow
// traces land in the self-profile store where a call-path query finds
// the slowed endpoint.
func TestE2EClosedLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e needs seconds of replay")
	}
	const endpoint = "/api/stats"
	host, err := loadgen.StartSelfHost(loadgen.SelfHostOptions{
		ScratchDir: t.TempDir(),
		Seed:       42,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()

	sched, err := loadgen.BuildSchedule(loadgen.MixedSpec(42, 6*time.Second, 150))
	if err != nil {
		t.Fatal(err)
	}
	// Onset at the halfway point: three 1s baseline windows warm the
	// endpoint on honest latencies, then every /api/stats request slows
	// by 30ms — orders of magnitude past the µs-scale baseline.
	regress := &loadgen.Regression{Path: endpoint, Delay: 30 * time.Millisecond, Onset: 3 * time.Second}
	m, err := loadgen.Run(context.Background(), sched, host.Target(16, regress))
	if err != nil {
		t.Fatal(err)
	}
	rep := loadgen.BuildReport(sched, m)
	exported, err := host.Annotate(rep)
	if err != nil {
		t.Fatal(err)
	}

	if rep.Measured.Anomalies == 0 {
		t.Fatal("latency-baseline rules missed an injected 30ms regression")
	}
	if rep.Measured.RetainedTraces == 0 {
		t.Error("tail sampler retained no slow traces")
	}
	if exported == 0 {
		t.Fatal("no slow-trace profiles exported to the self-profile store")
	}
	if rep.Measured.Errors != 0 {
		t.Errorf("replay had %d request errors", rep.Measured.Errors)
	}
	// The where= traffic in the mixed workload must surface as plan
	// accounting scraped from /debug/querylog.
	if rep.Measured.Plan == nil || rep.Measured.Plan.Queries == 0 {
		t.Fatalf("report missing plan-efficiency summary: %+v", rep.Measured.Plan)
	}
	if rep.Measured.Plan.Segments == 0 {
		t.Error("plan-efficiency summary saw no segments despite where= traffic")
	}
	var planText strings.Builder
	rep.RenderText(&planText)
	if !strings.Contains(planText.String(), "plan efficiency:") {
		t.Errorf("text report missing plan-efficiency line:\n%s", planText.String())
	}

	// The live server reports the firing at /debug/alerts...
	alerts := debugAlerts(t, host.URL)
	var fired int64
	for _, r := range alerts.Rules {
		if r.Name == "http-latency" {
			fired = r.FiredTotal
		}
	}
	found := false
	for _, tr := range alerts.Transitions {
		if tr.Rule == "http-latency" && tr.Target == endpoint && tr.Firing {
			found = true
		}
	}
	if !found {
		t.Fatalf("/debug/alerts has no http-latency firing for %s: %+v", endpoint, alerts.Transitions)
	}

	// ...and the rule's alert counter in /metrics.
	resp, err := http.Get(host.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := fmt.Sprintf(`thicket_monitor_alerts_total{rule="http-latency"} %d`, fired); !strings.Contains(string(metrics), want) {
		t.Errorf("/metrics missing %q", want)
	}

	// The self-profile store is a regular ensemble store: the slowed
	// endpoint appears in the metadata and a call-path query returns the
	// slow request spans.
	selfPath := host.SelfProfilePath()
	if err := host.Close(); err != nil {
		t.Fatal(err)
	}
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
	found = false
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
}

// TestE2ECleanRunQuiet is the other half of the closed-loop contract:
// the same seed with no injected regression must not alarm.
func TestE2ECleanRunQuiet(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e needs seconds of replay")
	}
	host, err := loadgen.StartSelfHost(loadgen.SelfHostOptions{
		ScratchDir: t.TempDir(),
		Seed:       42,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()

	sched, err := loadgen.BuildSchedule(loadgen.MixedSpec(42, 4*time.Second, 150))
	if err != nil {
		t.Fatal(err)
	}
	m, err := loadgen.Run(context.Background(), sched, host.Target(16, nil))
	if err != nil {
		t.Fatal(err)
	}
	rep := loadgen.BuildReport(sched, m)
	if _, err := host.Annotate(rep); err != nil {
		t.Fatal(err)
	}
	if rep.Measured.Anomalies != 0 {
		t.Fatalf("clean run flagged %d anomalies", rep.Measured.Anomalies)
	}
	if rep.Measured.Errors != 0 {
		t.Errorf("clean run had %d request errors", rep.Measured.Errors)
	}
	// The self-monitor's resource footprint must land in the report:
	// real heap and goroutine observations, and no alerts on a clean run.
	res := rep.Measured.Resources
	if res == nil || res.Samples == 0 {
		t.Fatalf("report missing monitor resource summary: %+v", res)
	}
	if res.PeakHeapBytes <= 0 || res.MaxGoroutines <= 0 {
		t.Errorf("resource summary implausible: %+v", res)
	}
	if res.AlertsFired != 0 || len(res.AlertsFiring) != 0 {
		t.Errorf("clean run fired monitor alerts: %+v", res)
	}
	var resText strings.Builder
	rep.RenderText(&resText)
	if !strings.Contains(resText.String(), "resources: peak heap") {
		t.Errorf("text report missing resources line:\n%s", resText.String())
	}

	if tr := debugAlerts(t, host.URL).Transitions; len(tr) != 0 {
		t.Fatalf("clean run walked alert transitions: %+v", tr)
	}
}

// debugAlerts fetches and decodes the self-host's /debug/alerts.
func debugAlerts(t *testing.T, base string) monitor.AlertsSnapshot {
	t.Helper()
	resp, err := http.Get(base + "/debug/alerts")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var alerts monitor.AlertsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&alerts); err != nil {
		t.Fatalf("bad /debug/alerts payload: %v", err)
	}
	return alerts
}

// TestRunSeedDeterminism is the cmd-level seed contract: two full runs
// of the binary's run() with the same seed write BENCH reports whose
// workload halves (schedule digest included) are byte-identical; the
// measured halves may differ.
func TestRunSeedDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e needs seconds of replay")
	}
	runOnce := func(out string) {
		t.Helper()
		cfg := &config{
			seed: 7, duration: 1500 * time.Millisecond, rate: 120,
			workload: "mixed", out: out, concurrency: 16,
		}
		code, err := run(context.Background(), cfg, io.Discard, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if code != 0 {
			t.Fatalf("run exited %d", code)
		}
	}
	outA := t.TempDir() + "/a.json"
	outB := t.TempDir() + "/b.json"
	runOnce(outA)
	runOnce(outB)

	workload := func(path string) string {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var rep struct {
			Workload json.RawMessage `json:"workload"`
			Measured struct {
				StartedUnixNS int64 `json:"started_unix_ns"`
			} `json:"measured"`
		}
		if err := json.Unmarshal(raw, &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Measured.StartedUnixNS == 0 {
			t.Fatal("report missing wall-clock fields")
		}
		return string(rep.Workload)
	}
	a, b := workload(outA), workload(outB)
	if a != b {
		t.Fatalf("same-seed workload reports differ:\n%s\n%s", a, b)
	}
}
