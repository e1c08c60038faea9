package server_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/server"
	"repro/internal/telemetry"
)

func getJSON(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("%s: not JSON: %v\n%s", url, err, raw)
	}
	return out
}

// TestTraceparentPropagation: an incoming W3C traceparent is honoured
// (same trace ID, fresh span ID, stamped on the request's span tree),
// and a request without one gets a freshly minted trace.
func TestTraceparentPropagation(t *testing.T) {
	prev := telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(prev)
	col := &telemetry.Collector{}
	prevCol := telemetry.SetCollector(col)
	defer telemetry.SetCollector(prevCol)

	srv := memServer(t, buildThicket(t), server.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	req, _ := http.NewRequest("GET", ts.URL+"/api/info", nil)
	req.Header.Set("traceparent", "00-"+traceID+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	// The response announces the server's own span in the same trace.
	tp := resp.Header.Get("traceparent")
	tc, err := telemetry.ParseTraceparent(tp)
	if err != nil {
		t.Fatalf("response traceparent %q: %v", tp, err)
	}
	if tc.TraceID != traceID {
		t.Errorf("response trace ID %s, want caller's %s", tc.TraceID, traceID)
	}
	if tc.SpanID == "00f067aa0ba902b7" {
		t.Error("server echoed the caller's span ID instead of minting its own")
	}

	// The span tree carries the trace ID into the collector.
	var got string
	for _, tree := range col.Roots() {
		if tree.Name == "http /api/info" {
			got = tree.TraceID
		}
	}
	if got != traceID {
		t.Errorf("collected tree TraceID = %q, want %q", got, traceID)
	}

	// A malformed traceparent is replaced by a fresh valid trace.
	req2, _ := http.NewRequest("GET", ts.URL+"/api/info", nil)
	req2.Header.Set("traceparent", "00-zzzz-bad-01")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	tc2, err := telemetry.ParseTraceparent(resp2.Header.Get("traceparent"))
	if err != nil {
		t.Fatalf("minted traceparent invalid: %v", err)
	}
	if tc2.TraceID == traceID {
		t.Error("malformed traceparent inherited the previous trace ID")
	}
}

// TestDebugTraces: the retained ring is inspectable, annotated with
// retention reasons, and honours ?n=.
func TestDebugTraces(t *testing.T) {
	prev := telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(prev)
	col := &telemetry.Collector{MaxTrees: 16}
	prevCol := telemetry.SetCollector(col)
	defer telemetry.SetCollector(prevCol)

	srv := memServer(t, buildThicket(t), server.Options{Trace: col})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/api/info")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	out := getJSON(t, ts.URL+"/debug/traces?n=2")
	if out["enabled"] != true {
		t.Fatalf("/debug/traces = %v", out)
	}
	if got := out["retained"].(float64); got < 3 {
		t.Errorf("retained = %v, want >= 3", got)
	}
	traces := out["traces"].([]any)
	if len(traces) != 2 {
		t.Fatalf("?n=2 returned %d traces", len(traces))
	}
	tr := traces[0].(map[string]any)
	if tr["reason"] != telemetry.ReasonAll {
		t.Errorf("reason = %v", tr["reason"])
	}
	if tr["trace_id"] == "" || tr["root"] == nil {
		t.Errorf("trace entry incomplete: %v", tr)
	}

	// Without a collector the endpoint reports disabled rather than 404,
	// so probes can distinguish "off" from "wrong path".
	srv2 := memServer(t, buildThicket(t), server.Options{})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	if out := getJSON(t, ts2.URL+"/debug/traces"); out["enabled"] != false {
		t.Errorf("collector-less /debug/traces = %v", out)
	}
}

// TestDebugAnomaliesAndInjection: an injected slowdown on one endpoint
// fires the monitor's latency-baseline rule for that endpoint, which
// /debug/alerts shows as a per-target transition next to the rolling
// baselines, and which bumps the rule's alert counter in /metrics. The
// sampler ticks at synthetic instants, so no wall clock is involved.
func TestDebugAnomaliesAndInjection(t *testing.T) {
	reg := telemetry.NewRegistry()
	mon, err := monitor.New(monitor.Options{Registry: reg, Rules: []monitor.Rule{{
		Name: "http-latency", Kind: monitor.KindBaseline, Metric: "thicket_http_request_seconds",
		Value: 3, Factor: 1.5, MinSamples: 2, ForTicks: 1, ClearTicks: 1,
		// µs loopback jitter (scheduler, GC) sits below this noise
		// floor; the injected 30ms clears it sixfold.
		MinDeltaS: 0.005,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	srv := memServer(t, buildThicket(t), server.Options{Registry: reg, Monitor: mon})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	hit := func(n int) {
		for i := 0; i < n; i++ {
			resp, err := http.Get(ts.URL + "/api/info")
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	// Warm the baseline over fast intervals, one tick each.
	for i := int64(1); i <= monitor.BaselineWarmup; i++ {
		hit(5)
		mon.Tick(time.Unix(i, 0))
		if tr := mon.Alerts().Transitions; len(tr) != 0 {
			t.Fatalf("baseline warmup fired %+v", tr)
		}
	}
	// Inject a regression and fold one loud interval.
	srv.SetInjectedLatency("/api/info", 30*time.Millisecond)
	hit(5)
	mon.Tick(time.Unix(monitor.BaselineWarmup+1, 0))
	srv.SetInjectedLatency("/api/info", 0)

	var alerts monitor.AlertsSnapshot
	_, raw := getBody(t, ts, "/debug/alerts")
	if err := json.Unmarshal([]byte(raw), &alerts); err != nil {
		t.Fatalf("/debug/alerts: %v\n%s", err, raw)
	}
	if len(alerts.Transitions) != 1 {
		t.Fatalf("transitions = %+v, want one firing for /api/info", alerts.Transitions)
	}
	if tr := alerts.Transitions[0]; tr.Rule != "http-latency" || tr.Target != "/api/info" || !tr.Firing {
		t.Fatalf("transition = %+v, want http-latency firing for /api/info", tr)
	}
	found := false
	for _, b := range alerts.Rules[0].Baselines {
		if b.Target == "/api/info" && b.Intervals == monitor.BaselineWarmup+1 && b.Count == 20 {
			found = true
		}
	}
	if !found {
		t.Errorf("baselines missing /api/info after four intervals: %+v", alerts.Rules[0].Baselines)
	}

	if _, metrics := getBody(t, ts, "/metrics"); !strings.Contains(metrics, `thicket_monitor_alerts_total{rule="http-latency"} 1`) {
		t.Error("alert counter missing from /metrics")
	}
}
