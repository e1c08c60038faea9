package profile_test

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/profile"
	"repro/internal/sim"
)

// The Decode pair reads the 560 Figure-13 profiles as the writer emits
// them: *Ref through the general decoder (encoding/json), *New through
// FromBytes, which the single-pass scanner serves. scripts/bench.sh
// diffs the pair into BENCH_kernels.json.

var (
	fig13Once  sync.Once
	fig13Bytes [][]byte
	fig13Err   error

	// benchSink keeps each measured call's result live.
	benchSink any
)

// fig13Payloads serializes the Figure-13 ensemble once per test binary
// and starts the timer afresh.
func fig13Payloads(b *testing.B) [][]byte {
	b.Helper()
	fig13Once.Do(func() {
		ps, err := sim.Figure13Ensemble(1)
		if err != nil {
			fig13Err = err
			return
		}
		for _, p := range ps {
			data, err := p.MarshalBytes()
			if err != nil {
				fig13Err = err
				return
			}
			fig13Bytes = append(fig13Bytes, data)
		}
	})
	if fig13Err != nil {
		b.Fatal(fig13Err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	return fig13Bytes
}

func BenchmarkDecodeRef(b *testing.B) {
	payloads := fig13Payloads(b)
	for i := 0; i < b.N; i++ {
		for _, data := range payloads {
			p, err := profile.ReadJSONGeneral(bytes.NewReader(data))
			if err != nil {
				b.Fatal(err)
			}
			benchSink = p
		}
	}
}

func BenchmarkDecodeNew(b *testing.B) {
	payloads := fig13Payloads(b)
	for i := 0; i < b.N; i++ {
		for _, data := range payloads {
			p, err := profile.FromBytes(data)
			if err != nil {
				b.Fatal(err)
			}
			benchSink = p
		}
	}
}
