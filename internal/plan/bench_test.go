package plan_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/dataframe"
	"repro/internal/plan"
	"repro/internal/profile"
	"repro/internal/store"
)

// benchSegments × benchProfiles profiles across disjoint, monotonic id
// ranges — the shape zone maps exist for: a selective id predicate
// proves all but one segment irrelevant from headers alone.
const (
	benchSegments = 8
	benchProfiles = 256
	benchIDStride = 100_000
)

// benchEnsemble is a deterministic, denser cousin of the test ensemble:
// every profile carries the full metadata schema (no drift — benchmarks
// should not hit the unknown-column tolerance paths) and several call
// paths of perf rows, so segment decode cost is realistic.
func benchEnsemble(b *testing.B, seg int) []*profile.Profile {
	b.Helper()
	rng := rand.New(rand.NewSource(int64(seg) + 1))
	vocab := []string{"solve", "io", "mult", "add", "halo", "comm"}
	out := make([]*profile.Profile, benchProfiles)
	for i := range out {
		p := profile.New()
		p.SetMeta("id", dataframe.Int64(int64(seg)*benchIDStride+int64(i)))
		p.SetMeta("group", dataframe.Str(fmt.Sprintf("g%d", rng.Intn(3))))
		p.SetMeta("scale", dataframe.Int64(int64(1<<rng.Intn(5))))
		p.SetMeta("tuned", dataframe.BoolVal(rng.Intn(2) == 0))
		p.SetMeta("ratio", dataframe.Float64(float64(rng.Intn(400))/4))
		for j := 0; j < 6; j++ {
			path := []string{"main", vocab[j%len(vocab)]}
			if j%2 == 0 {
				path = append(path, vocab[rng.Intn(len(vocab))])
			}
			metrics := map[string]dataframe.Value{
				"time":  dataframe.Float64(rng.NormFloat64() * 10),
				"bytes": dataframe.Float64(float64(rng.Intn(1 << 20))),
			}
			if err := p.AddSample(path, metrics); err != nil {
				b.Fatal(err)
			}
		}
		out[i] = p
	}
	return out
}

// benchStore builds the multi-segment directory store with the given
// column cache budget (store.Options.CacheBytes). The cold pairs disable
// the cache, so every Naive iteration pays the full decode the compiled
// path is designed to avoid.
func benchStore(b *testing.B, cacheBytes int64) *store.Store {
	b.Helper()
	path := filepath.Join(b.TempDir(), "bench.tks")
	mk := func(seg int) *core.Thicket {
		th, err := core.FromProfiles(benchEnsemble(b, seg), core.Options{IndexBy: "id"})
		if err != nil {
			b.Fatal(err)
		}
		return th
	}
	if err := store.CreateDir(path, mk(0)); err != nil {
		b.Fatal(err)
	}
	st, err := store.OpenWithOptions(path, store.Options{CacheBytes: cacheBytes})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	for seg := 1; seg < benchSegments; seg++ {
		if err := st.Append(mk(seg)); err != nil {
			b.Fatal(err)
		}
	}
	return st
}

// selectivePred matches only the last segment's id range.
func selectivePred(b *testing.B) []plan.Predicate {
	b.Helper()
	preds, err := plan.Compile([]string{fmt.Sprintf("id>=%d", (benchSegments-1)*benchIDStride)})
	if err != nil {
		b.Fatal(err)
	}
	return preds
}

// fullScanPred matches every profile — no segment can be pruned, so
// this pins the compiled path's overhead when pushdown buys nothing.
func fullScanPred(b *testing.B) []plan.Predicate {
	preds, err := plan.Compile([]string{"id>=0"})
	if err != nil {
		b.Fatal(err)
	}
	return preds
}

// warmPreds is a question of the adhoc workload's shape: a prunable id
// range that keeps the last three segments, and a broad predicate that
// most of their profiles pass.
func warmPreds(b *testing.B) []plan.Predicate {
	b.Helper()
	preds, err := plan.Compile([]string{fmt.Sprintf("id>=%d", (benchSegments-3)*benchIDStride), "group!=g0"})
	if err != nil {
		b.Fatal(err)
	}
	return preds
}

// warmStore builds the store with the default column cache and warms
// it, and the plan's per-segment parts, with one naive load and one
// compiled run of preds; it returns the naive answer's profile count.
// The warm pair thus times per-request work, not block decode.
func warmStore(b *testing.B, preds []plan.Predicate) (*store.Store, int) {
	b.Helper()
	st := benchStore(b, 0)
	th, err := st.Load()
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := plan.ExecuteStore(st, preds); err != nil {
		b.Fatal(err)
	}
	return st, plan.NaiveFilter(th, preds).NumProfiles()
}

func runNaive(b *testing.B, st *store.Store, preds []plan.Predicate, wantRows int) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th, err := st.Load()
		if err != nil {
			b.Fatal(err)
		}
		got := plan.NaiveFilter(th, preds)
		if got.NumProfiles() != wantRows {
			b.Fatalf("naive matched %d rows, want %d", got.NumProfiles(), wantRows)
		}
	}
}

func runPlan(b *testing.B, st *store.Store, preds []plan.Predicate, wantRows int) {
	b.Helper()
	b.ReportAllocs()
	var es plan.ExecStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, stats, err := plan.ExecuteStore(st, preds)
		if err != nil {
			b.Fatal(err)
		}
		if got.NumProfiles() != wantRows {
			b.Fatalf("plan matched %d rows, want %d", got.NumProfiles(), wantRows)
		}
		es = stats
	}
	b.StopTimer()
	if total := es.BlocksScanned + es.BlocksSkipped; total > 0 {
		b.ReportMetric(float64(es.BlocksSkipped)/float64(total), "skiprate")
	}
}

func BenchmarkQuerySelectiveNaive(b *testing.B) {
	st := benchStore(b, -1)
	runNaive(b, st, selectivePred(b), benchProfiles)
}

func BenchmarkQuerySelectivePlan(b *testing.B) {
	st := benchStore(b, -1)
	runPlan(b, st, selectivePred(b), benchProfiles)
}

func BenchmarkQueryFullScanNaive(b *testing.B) {
	st := benchStore(b, -1)
	runNaive(b, st, fullScanPred(b), benchSegments*benchProfiles)
}

func BenchmarkQueryFullScanPlan(b *testing.B) {
	st := benchStore(b, -1)
	runPlan(b, st, fullScanPred(b), benchSegments*benchProfiles)
}

func BenchmarkQueryWarmNaive(b *testing.B) {
	preds := warmPreds(b)
	st, want := warmStore(b, preds)
	runNaive(b, st, preds, want)
}

func BenchmarkQueryWarmPlan(b *testing.B) {
	preds := warmPreds(b)
	st, want := warmStore(b, preds)
	runPlan(b, st, preds, want)
}
