package server_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// benchServingMonitor measures endpoint latency with the self-monitor
// absent vs running at an aggressive 50ms wall interval — two orders of
// magnitude hotter than the default 10s cadence, so the pair is an
// upper bound. The request path itself gains no code from the monitor;
// what the On side pins is the background registry+runtime snapshot,
// and the shipped rules' evaluation (the latency-baseline rules read
// every endpoint histogram series), contending for the registry lock
// while requests count into it.
// scripts/bench.sh monitor diffs the Off/On pairs and gates the mean.
func benchServingMonitor(b *testing.B, path string, withMonitor bool) {
	reg := telemetry.NewRegistry()
	opts := server.Options{Registry: reg}
	if withMonitor {
		mon, err := monitor.New(monitor.Options{
			Interval: 50 * time.Millisecond,
			Registry: reg,
		})
		if err != nil {
			b.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() { mon.Run(ctx); close(done) }()
		defer func() { cancel(); <-done }()
		opts.Monitor = mon
	}
	srv := server.New(buildThicket(b), nil, opts)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
	}
}

func BenchmarkMonitorOffHealthz(b *testing.B) { benchServingMonitor(b, "/healthz", false) }
func BenchmarkMonitorOnHealthz(b *testing.B)  { benchServingMonitor(b, "/healthz", true) }
func BenchmarkMonitorOffProfiles(b *testing.B) {
	benchServingMonitor(b, "/api/profiles?where=cluster=rztopaz", false)
}
func BenchmarkMonitorOnProfiles(b *testing.B) {
	benchServingMonitor(b, "/api/profiles?where=cluster=rztopaz", true)
}
func BenchmarkMonitorOffStats(b *testing.B) {
	benchServingMonitor(b, "/api/stats?aggs=mean,std", false)
}
func BenchmarkMonitorOnStats(b *testing.B) { benchServingMonitor(b, "/api/stats?aggs=mean,std", true) }
