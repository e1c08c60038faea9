package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/telemetry"
)

// newMonitorTestServer serves the monitor CLI's three endpoints backed
// by a real Sampler, so the test exercises the actual wire shapes.
func newMonitorTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	reg := telemetry.NewRegistry()
	mon, err := monitor.New(monitor.Options{
		Registry: reg,
		Rules: []monitor.Rule{{
			Name: "hot", Kind: monitor.KindThreshold, Metric: "test_gauge",
			Op: ">", Value: 5, ForTicks: 1, ClearTicks: 1,
		}, {
			Name: "slow", Kind: monitor.KindBaseline, Metric: "test_seconds",
			Value: 3, Factor: 1.5, ForTicks: 1, ClearTicks: 1,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	g := reg.Gauge("test_gauge", "test gauge")
	h := reg.Histogram("test_seconds", "test latency", "endpoint", "/api/x")
	for i := int64(1); i <= 4; i++ {
		g.Set(10 * i)
		latency := 0.001 // 1ms while the baseline warms up...
		if i == 4 {
			latency = 1 // ...then a 1000x regression
		}
		h.Observe(latency)
		mon.Tick(time.Unix(i*10, 0))
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{
			"status": "ok",
			"build": map[string]any{
				"version": "v1.2.3", "revision": "abcdef1234567890", "dirty": true,
			},
			"go_version":     "go1.24.0",
			"uptime_seconds": 42,
		})
	})
	mux.HandleFunc("/debug/monitor", func(w http.ResponseWriter, r *http.Request) {
		var window time.Duration
		if s := r.URL.Query().Get("window"); s != "" {
			window, _ = time.ParseDuration(s)
		}
		var metrics []string
		if s := r.URL.Query().Get("metrics"); s != "" {
			metrics = strings.Split(s, ",")
		}
		json.NewEncoder(w).Encode(mon.Window(window, metrics))
	})
	mux.HandleFunc("/debug/alerts", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(mon.Alerts())
	})
	return httptest.NewServer(mux)
}

// TestMonitorCmdOneShot: `thicket monitor -target ...` renders the
// health header, the series table, and the firing alert.
func TestMonitorCmdOneShot(t *testing.T) {
	ts := newMonitorTestServer(t)
	defer ts.Close()

	var buf strings.Builder
	if err := run([]string{"monitor", "-target", ts.URL}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"version=v1.2.3",
		"revision=abcdef123456+dirty", // truncated to 12 hex chars
		"go1.24.0",
		"up 42s",
		"test_gauge",
		"go_goroutines", // runtime series sampled alongside the registry
		"ALERTS FIRING: hot, slow",
		"firing   hot",
		"firing   slow /api/x", // a baseline transition names its target
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// The ramping gauge's sparkline must use more than one level.
	line := ""
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "test_gauge") {
			line = l
		}
	}
	if !strings.ContainsRune(line, '▁') || !strings.ContainsRune(line, '█') {
		t.Errorf("ramp sparkline missing extremes: %q", line)
	}
}

// TestMonitorCmdFilters: -metrics restricts the table, -window is
// forwarded to the endpoint.
func TestMonitorCmdFilters(t *testing.T) {
	ts := newMonitorTestServer(t)
	defer ts.Close()

	var buf strings.Builder
	err := run([]string{"monitor", "-target", ts.URL, "-metrics", "test_gauge", "-window", "15s"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "test_gauge") {
		t.Fatalf("filtered metric absent:\n%s", out)
	}
	if strings.Contains(out, "go_goroutines") {
		t.Errorf("-metrics filter leaked unrelated series:\n%s", out)
	}
	if !strings.Contains(out, "window 15s") {
		t.Errorf("window not forwarded:\n%s", out)
	}
}

// TestMonitorCmdRequiresTarget: missing -target is a usage error, not a
// hang or a panic.
func TestMonitorCmdRequiresTarget(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"monitor"}, &buf); err == nil {
		t.Fatal("monitor without -target succeeded")
	}
}

// TestSparkline pins the renderer's edge cases: empty, flat, ramp, and
// downsampling to the requested width.
func TestSparkline(t *testing.T) {
	if got := sparkline(nil, 8); got != "" {
		t.Errorf("empty series = %q, want empty", got)
	}
	flat := []monitor.SeriesPoint{{Value: 3}, {Value: 3}, {Value: 3}}
	if got := sparkline(flat, 8); got != "▁▁▁" {
		t.Errorf("flat series = %q, want lowest blocks", got)
	}
	var ramp []monitor.SeriesPoint
	for i := 0; i < 64; i++ {
		ramp = append(ramp, monitor.SeriesPoint{Value: float64(i)})
	}
	got := sparkline(ramp, 8)
	if n := len([]rune(got)); n != 8 {
		t.Errorf("downsampled width = %d, want 8", n)
	}
	runes := []rune(got)
	if runes[0] != '▁' || runes[len(runes)-1] != '█' {
		t.Errorf("ramp = %q, want ▁...█", got)
	}
}
