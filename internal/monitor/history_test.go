package monitor

import (
	"fmt"
	"log/slog"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/plan"
	"repro/internal/store"
	"repro/internal/telemetry"
)

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
		h, err := newHistoryWriter(HistoryOptions{StorePath: path},
			telemetry.NewRegistry(), slog.New(slog.DiscardHandler))
		if err != nil {
			b.Fatal(err)
		}
		for i := 1; i <= n; i++ {
			sample := Sample{UnixNS: int64(i) * interval, Values: map[string]float64{"depth": float64(i)}}
			h.record(sample, int64(i), nil)
		}
		if err := h.writer.Close(); err != nil {
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
