package core

import (
	"sync"
	"testing"

	"repro/internal/dataframe"
	"repro/internal/parallel"
	"repro/internal/profile"
	"repro/internal/sim"
)

// Old-vs-new pairs for the profile-ordinal rewrite: each *Ref runs the
// string-key implementation preserved in differential_test.go, each *New
// the shipping code, on the Figure-13 ensemble (560 RAJAPerf profiles)
// with one worker. The FromProfiles pair composes the ensemble's five
// rows, one thicket each, with refFromProfiles and FromProfiles.
// scripts/bench.sh diffs the pairs into BENCH_kernels.json.

var (
	fig13Once sync.Once
	fig13     *Thicket
	fig13Err  error

	// benchSink keeps each measured call's result live.
	benchSink any
)

// fig13Thicket composes the Figure-13 ensemble once per test binary and
// starts the timer afresh.
func fig13Thicket(b *testing.B) *Thicket {
	b.Helper()
	fig13Once.Do(func() {
		ps, err := sim.Figure13Ensemble(1)
		if err != nil {
			fig13Err = err
			return
		}
		fig13, fig13Err = FromProfiles(ps, Options{})
	})
	if fig13Err != nil {
		b.Fatal(fig13Err)
	}
	prev := parallel.Set(1)
	b.Cleanup(func() { parallel.Set(prev) })
	b.ReportAllocs()
	b.ResetTimer()
	return fig13
}

// clangOnly is a where=compiler=clang++-9.0.0 question: two of the five
// Figure-13 configurations.
func clangOnly(m MetaRow) bool { return m.Str("compiler") == "clang++-9.0.0" }

func BenchmarkFilterMetadataRef(b *testing.B) {
	th := fig13Thicket(b)
	for i := 0; i < b.N; i++ {
		benchSink = refFilterMetadata(th, clangOnly)
	}
}

func BenchmarkFilterMetadataNew(b *testing.B) {
	th := fig13Thicket(b)
	for i := 0; i < b.N; i++ {
		benchSink = th.FilterMetadata(clangOnly)
	}
}

// everyThird picks a third of the profiles by index value.
func everyThird(th *Thicket) []dataframe.Value {
	var out []dataframe.Value
	for i, v := range th.Profiles() {
		if i%3 == 0 {
			out = append(out, v)
		}
	}
	return out
}

func BenchmarkFilterProfilesRef(b *testing.B) {
	th := fig13Thicket(b)
	values := everyThird(th)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = refFilterProfiles(th, values)
	}
}

func BenchmarkFilterProfilesNew(b *testing.B) {
	th := fig13Thicket(b)
	values := everyThird(th)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = th.FilterProfiles(values)
	}
}

// The Validate pair runs through FromParts, the path every store and
// JSON load takes.
func BenchmarkValidateRef(b *testing.B) {
	th := fig13Thicket(b)
	for i := 0; i < b.N; i++ {
		out := th.copyWith(th.Tree, th.PerfData, th.Metadata, th.Stats)
		if err := refValidate(out); err != nil {
			b.Fatal(err)
		}
		benchSink = out
	}
}

func BenchmarkValidateNew(b *testing.B) {
	th := fig13Thicket(b)
	for i := 0; i < b.N; i++ {
		out, err := FromParts(th.Tree, th.PerfData, th.Metadata, th.Stats, th.profileLevel)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = out
	}
}

var benchMetric = []dataframe.ColKey{{"time (exc)"}}

func BenchmarkGroupedStatsRef(b *testing.B) {
	th := fig13Thicket(b)
	for i := 0; i < b.N; i++ {
		out, err := refGroupedStats(th, []string{"variant"}, benchMetric, []string{"mean"})
		if err != nil {
			b.Fatal(err)
		}
		benchSink = out
	}
}

func BenchmarkGroupedStatsNew(b *testing.B) {
	th := fig13Thicket(b)
	for i := 0; i < b.N; i++ {
		out, err := th.GroupedStats([]string{"variant"}, benchMetric, []string{"mean"})
		if err != nil {
			b.Fatal(err)
		}
		benchSink = out
	}
}

func BenchmarkPivotMetricRef(b *testing.B) {
	th := fig13Thicket(b)
	for i := 0; i < b.N; i++ {
		out, err := refPivotMetric(th, benchMetric[0], "problem size", "mean")
		if err != nil {
			b.Fatal(err)
		}
		benchSink = out
	}
}

func BenchmarkPivotMetricNew(b *testing.B) {
	th := fig13Thicket(b)
	for i := 0; i < b.N; i++ {
		out, err := th.PivotMetric(benchMetric[0], "problem size", "mean")
		if err != nil {
			b.Fatal(err)
		}
		benchSink = out
	}
}

var (
	fig13RowsOnce sync.Once
	fig13Rows     [][]*profile.Profile
	fig13RowsErr  error
)

// fig13RowProfiles generates the five Figure-13 rows' profiles once per
// test binary and starts the timer afresh.
func fig13RowProfiles(b *testing.B) [][]*profile.Profile {
	b.Helper()
	fig13RowsOnce.Do(func() {
		for _, row := range sim.Figure13Rows() {
			ps, err := sim.RajaEnsemble(row, 1)
			if err != nil {
				fig13RowsErr = err
				return
			}
			fig13Rows = append(fig13Rows, ps)
		}
	})
	if fig13RowsErr != nil {
		b.Fatal(fig13RowsErr)
	}
	prev := parallel.Set(1)
	b.Cleanup(func() { parallel.Set(prev) })
	b.ReportAllocs()
	b.ResetTimer()
	return fig13Rows
}

func BenchmarkFromProfilesRef(b *testing.B) {
	rows := fig13RowProfiles(b)
	for i := 0; i < b.N; i++ {
		for _, ps := range rows {
			th, err := refFromProfiles(ps, Options{})
			if err != nil {
				b.Fatal(err)
			}
			benchSink = th
		}
	}
}

func BenchmarkFromProfilesNew(b *testing.B) {
	rows := fig13RowProfiles(b)
	for i := 0; i < b.N; i++ {
		for _, ps := range rows {
			th, err := FromProfiles(ps, Options{})
			if err != nil {
				b.Fatal(err)
			}
			benchSink = th
		}
	}
}
