package ingest

import (
	"slices"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// BenchmarkSubmitAcrossFlush times the ack of each profile one submitter
// sends into a directory store, with its WAL, under b.TempDir(), a
// level-0 flush every 16 profiles and the default compaction: the acks
// that meet a flush are the tail. It reports the ack latency's median
// and 99th percentile.
func BenchmarkSubmitAcrossFlush(b *testing.B) {
	payloads := make([][]byte, b.N)
	for i, p := range genProfiles(b, b.N, 17) {
		var err error
		if payloads[i], err = p.MarshalBytes(); err != nil {
			b.Fatal(err)
		}
	}
	st := newDirStore(b)
	in, err := New(st, Options{FlushProfiles: 16, FlushInterval: time.Hour, Registry: telemetry.NewRegistry()})
	if err != nil {
		b.Fatal(err)
	}
	lat := make([]time.Duration, b.N)
	b.ResetTimer()
	for i, payload := range payloads {
		start := time.Now()
		if err := in.SubmitBytes(payload); err != nil {
			b.Fatal(err)
		}
		lat[i] = time.Since(start)
	}
	b.StopTimer()
	if err := in.Close(); err != nil {
		b.Fatal(err)
	}
	slices.Sort(lat)
	rank := func(q float64) float64 { // nearest rank, in microseconds
		return float64(lat[int(q*float64(len(lat)-1)+0.5)]) / float64(time.Microsecond)
	}
	b.ReportMetric(rank(0.50), "ack-p50-us")
	b.ReportMetric(rank(0.99), "ack-p99-us")
}
