package server_test

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/telemetry"
)

// TestMetricsEndpoint drives a few requests and checks /metrics renders
// the registry in Prometheus text format with the expected families.
func TestMetricsEndpoint(t *testing.T) {
	srv := memServer(t, buildThicket(t), server.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, p := range []string{"/api/info", "/api/stats?aggs=mean", "/api/stats?aggs=mean"} {
		resp, err := http.Get(ts.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"# TYPE thicket_http_requests_total counter",
		"thicket_http_requests_total 4",
		"# TYPE thicket_http_request_seconds histogram",
		`thicket_http_endpoint_requests_total{endpoint="/api/stats"} 2`,
		`thicket_response_cache_hits_total{endpoint="/api/stats"} 1`,
		`thicket_response_cache_misses_total{endpoint="/api/stats"} 1`,
		"# TYPE thicket_http_in_flight gauge",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n%s", want, body)
		}
	}
}

// TestRegistryIsolation verifies two servers with default options do not
// share metric series (fresh private registries), while an explicit
// shared registry merges.
func TestRegistryIsolation(t *testing.T) {
	th := buildThicket(t)
	a := memServer(t, th, server.Options{})
	b := memServer(t, th, server.Options{})
	if a.Registry() == b.Registry() {
		t.Error("default-option servers share a registry")
	}
	reg := telemetry.NewRegistry()
	c := memServer(t, th, server.Options{Registry: reg})
	if c.Registry() != reg {
		t.Error("explicit registry not adopted")
	}
}

// TestSlowQueryLog checks that requests beyond the threshold emit a
// structured warning record with the canonical fields and are counted,
// and that a negative threshold disables the log.
func TestSlowQueryLog(t *testing.T) {
	var sb strings.Builder
	srv := memServer(t, buildThicket(t), server.Options{
		SlowQuery: time.Nanosecond, // everything is slow
		Logger:    telemetry.NewJSONLogger(&sb, slog.LevelWarn),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/api/info")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	var rec map[string]any
	if err := json.Unmarshal([]byte(strings.TrimSpace(sb.String())), &rec); err != nil {
		t.Fatalf("slow-request log is not one JSON record: %v\n%s", err, sb.String())
	}
	if rec[slog.MessageKey] != "slow request" || rec[slog.LevelKey] != "WARN" {
		t.Errorf("slow log rendered as %v", rec)
	}
	if rec[telemetry.LogKeyMethod] != "GET" || rec[telemetry.LogKeyEndpoint] != "/api/info" {
		t.Errorf("slow log fields: %v", rec)
	}
	if rec[telemetry.LogKeyComponent] != "server" {
		t.Errorf("component = %v", rec[telemetry.LogKeyComponent])
	}
	tid, _ := rec[telemetry.LogKeyTraceID].(string)
	if len(tid) != 32 {
		t.Errorf("trace_id = %q, want a 32-hex id", tid)
	}
	if _, ok := rec[telemetry.LogKeyLatencyUS]; !ok {
		t.Error("latency_us missing from slow log")
	}
	if got := srv.Registry().SumCounter("thicket_http_slow_requests_total"); got != 1 {
		t.Errorf("slow request counter = %d, want 1", got)
	}

	// Negative threshold: disabled.
	sb.Reset()
	srv2 := memServer(t, buildThicket(t), server.Options{
		SlowQuery: -1,
		Logger:    telemetry.NewJSONLogger(&sb, slog.LevelWarn),
	})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	resp2, err := http.Get(ts2.URL + "/api/info")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if sb.Len() != 0 {
		t.Errorf("disabled slow-query log wrote:\n%s", sb.String())
	}
}

// TestRequestSpans enables telemetry and checks a request produces a
// span tree rooted at the endpoint with the cache branch annotated.
func TestRequestSpans(t *testing.T) {
	prev := telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(prev)
	col := &telemetry.Collector{}
	prevCol := telemetry.SetCollector(col)
	defer telemetry.SetCollector(prevCol)

	srv := memServer(t, buildThicket(t), server.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for i := 0; i < 2; i++ { // miss then hit
		resp, err := http.Get(ts.URL + "/api/stats?aggs=mean")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	var branches []string
	for _, tree := range col.Roots() {
		if tree.Name != "http /api/stats" {
			continue
		}
		for _, a := range tree.Attrs {
			if a.Key == "cache" {
				branches = append(branches, a.Value)
			}
		}
	}
	if len(branches) != 2 || branches[0] != "miss" || branches[1] != "hit" {
		t.Errorf("cache branches = %v, want [miss hit]", branches)
	}
}
