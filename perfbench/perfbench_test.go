package main

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/store"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.9, 90}} {
		got, err := percentile(xs, c.p)
		if err != nil || got != c.want {
			t.Errorf("p%g of 1..100 = %g, %v; want %g", c.p*100, got, err, c.want)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := percentile(xs, 0.9); err == nil {
		t.Error("p90 of 99 samples has 9 beyond it; want an error")
	}
	if _, err := percentile(xs[:19], 0.5); err == nil {
		t.Error("p50 of 19 samples has 9 beyond it; want an error")
	}
	if _, err := percentile(xs[:21], 0.5); err != nil {
		t.Errorf("p50 of 21 samples: %v", err)
	}
}

// The values Python's statistics.quantiles(range(1, 11), n=4) returns.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	for _, c := range [][2]float64{{q1, 2.75}, {q2, 5.5}, {q3, 8.25}} {
		if math.Abs(c[0]-c[1]) > 1e-12 {
			t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
		}
	}
}

func TestScheduleFixedBySeed(t *testing.T) {
	for _, w := range []string{"dashboard", "adhoc", "ingest"} {
		n := 40
		if w == "adhoc" {
			n = opsFor(w, 1)
		}
		a, b, c := scheduleHash(w, 7, n), scheduleHash(w, 7, n), scheduleHash(w, 8, n)
		if a != b {
			t.Errorf("%s: seed 7 gave two schedules", w)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", w)
		}
	}
}

func TestAdhocAsksEveryShapeEachRound(t *testing.T) {
	k := len(conjunctions())
	for _, seed := range []int64{1, 2} {
		seen := map[string]int{}
		for _, q := range adhocSchedule(seed, 2*k) {
			seen[fmt.Sprint(q.Preds)]++
		}
		if len(seen) != k {
			t.Fatalf("seed %d: %d distinct questions, want %d", seed, len(seen), k)
		}
		for w, n := range seen {
			if n != 2 {
				t.Errorf("seed %d: %s asked %d times in two rounds", seed, w, n)
			}
		}
	}
}

// serve generates inputs and sets up one served store.
func serve(t *testing.T, nIngest int) (*instance, *answers, [][]byte) {
	t.Helper()
	dir := t.TempDir()
	if err := writeInputs(dir, 3, nIngest); err != nil {
		t.Fatal(err)
	}
	m, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	payloads, err := readPayloads(dir, nIngest)
	if err != nil {
		t.Fatal(err)
	}
	inst, _, err := setUp(dir, filepath.Join(dir, "store"), nIngest > 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := inst.close(); err != nil {
			t.Error(err)
		}
	})
	return inst, newAnswers(baseTable(), m), payloads
}

func TestCheckerRejectsWrongCount(t *testing.T) {
	inst, a, _ := serve(t, 0)
	ops := buildOps("adhoc", 5, 4, a, nil)
	if ph := runPhase(inst, ops, false, nil); ph.failed != 0 {
		t.Fatalf("correct expectations: %d failed: %v", ph.failed, ph.errs)
	}
	ops[2][0].want.count++
	ph := runPhase(inst, ops, false, nil)
	if ph.failed != 1 || ph.attempted != 4 {
		t.Fatalf("one wrong count: failed %d of %d, want 1 of 4", ph.failed, ph.attempted)
	}
	if err := check(request{method: "GET", target: "/x", want: expect{checkCount: true, count: 3}}, 200, []byte(`{"count": 3}`)); err != nil {
		t.Errorf("right count rejected: %v", err)
	}
	for _, body := range []string{`{"count": 4}`, `{"error": "x"}`} {
		if check(request{method: "GET", target: "/x", want: expect{checkCount: true, count: 3}}, 200, []byte(body)) == nil {
			t.Errorf("%s accepted as count 3", body)
		}
	}
	if check(request{method: "GET", target: "/x"}, 429, nil) == nil {
		t.Error("a 429 passed the check")
	}
}

func TestDashboardAnswersHold(t *testing.T) {
	inst, a, _ := serve(t, 0)
	ph := runPhase(inst, buildOps("dashboard", 1, 3, a, nil), true, nil)
	if ph.failed != 0 {
		t.Fatalf("%d failed: %v", ph.failed, ph.errs)
	}
	if hits, _ := inst.srv.CacheStats(); hits != 12 {
		t.Errorf("cache hits %d over three refreshes, want 12", hits)
	}
}

// Flushes are triggered by count, never by the timer: one per 16
// acked profiles plus one for the remainder at close.
func TestIngestFlushesByCount(t *testing.T) {
	const n = 40
	inst, a, payloads := serve(t, n)
	ph := runPhase(inst, buildOps("ingest", 3, n/postsPerOp, a, payloads), false, nil)
	if ph.failed != 0 {
		t.Fatalf("%d failed: %v", ph.failed, ph.errs)
	}
	if err := verifyIngest(inst, payloads); err != nil {
		t.Fatal(err)
	}
	if got, want := inst.reg.SumCounter("thicket_ingest_l0_flushes_total"), int64((n+15)/16); got != want {
		t.Errorf("%d flushes for %d profiles, want %d", got, n, want)
	}
}

func TestIngestVerificationCatchesMissingProfile(t *testing.T) {
	const ops = 2
	inst, a, payloads := serve(t, ops*postsPerOp+1)
	ph := runPhase(inst, buildOps("ingest", 3, ops, a, payloads), false, nil)
	if ph.failed != 0 {
		t.Fatalf("%d failed: %v", ph.failed, ph.errs)
	}
	if err := verifyIngest(inst, payloads); err == nil {
		t.Error("a profile never posted passed verification")
	}
}

// Both kinds of run report exactly the metrics BENCHMARK.json names,
// in its units, and the traced run passes its own answer checks.
func TestReportsEveryBenchmarkMetric(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	const ops = 120 // enough for ten samples beyond p90
	for _, w := range []string{"dashboard", "ingest"} {
		dir := t.TempDir()
		nIngest := 0
		if w == "ingest" {
			nIngest = ops * postsPerOp
		}
		if err := writeInputs(dir, 2, nIngest); err != nil {
			t.Fatal(err)
		}
		m, err := readManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		payloads, err := readPayloads(dir, nIngest)
		if err != nil {
			t.Fatal(err)
		}
		r := &measurement{cfg: runConfig{workload: w}, dir: dir, m: m, payloads: payloads,
			ops: buildOps(w, 2, ops, newAnswers(baseTable(), m), payloads)}
		for _, c := range []struct {
			run  func() (*report, error)
			want []metricSpec
		}{{r.untraced, spec.EndToEnd}, {r.traced, spec.PerLayer}} {
			rep, err := c.run()
			if err != nil {
				t.Fatalf("%s: %v", w, err)
			}
			if !rep.Correct {
				t.Errorf("%s: %v", w, rep.Errors)
			}
			if len(rep.Metrics) != len(c.want) {
				t.Errorf("%s: %d metrics, BENCHMARK.json names %d", w, len(rep.Metrics), len(c.want))
			}
			for _, s := range c.want {
				if got, ok := rep.Metrics[s.Name]; !ok || got.Unit != s.Unit {
					t.Errorf("%s: metric %s = %+v, want unit %s", w, s.Name, got, s.Unit)
				}
			}
		}
	}
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// A reconcile gap beyond the tolerance fails an adhoc run, so that
// --trace 1 exits non-zero; inside it, the run stands.
func TestReconcileGapFailsAdhoc(t *testing.T) {
	const handler = 100e6
	ok := &report{result: result{Correct: true}}
	if gap := checkReconcile(ok, "adhoc", handler, 90e6); !ok.Correct || math.Abs(gap-0.1) > 1e-9 {
		t.Errorf("10%% gap: gap %g, correct %v, want 0.1, true", gap, ok.Correct)
	}
	for _, layers := range []int64{60e6, 140e6} {
		bad := &report{result: result{Correct: true}}
		checkReconcile(bad, "adhoc", handler, layers)
		if bad.Correct || bad.Failed != 1 || len(bad.Errors) != 1 {
			t.Errorf("layers %d ns against handler %d ns: correct %v, failed %d; want a failed run", layers, int64(handler), bad.Correct, bad.Failed)
		}
	}
	ingest := &report{result: result{Correct: true}}
	if checkReconcile(ingest, "ingest", 0, 0); !ingest.Correct {
		t.Error("ingest, which replays nothing, failed its reconcile check")
	}
}

// Every segment generation the run writes must be logged with its size;
// a generation missing from the run is an error, not an undercount.
func TestSegmentLogCountsEverySegment(t *testing.T) {
	dir := t.TempDir()
	l := newSegmentLog([]store.SegmentInfo{{Gen: 4}, {Gen: 5}})
	logger := slog.New(l)
	for _, c := range []struct {
		msg  string
		gen  int64
		size int
	}{{"store append", 6, 10}, {"store append", 7, 20}, {"store compact", 8, 25}} {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seg-%06d.tks", c.gen)), make([]byte, c.size), 0o644); err != nil {
			t.Fatal(err)
		}
		logger.Info(c.msg, "path", dir, "segment_gen", c.gen)
	}
	logger.Info("store open", "path", dir)
	if got, err := l.total(); err != nil || got != 55 {
		t.Fatalf("total = %d, %v; want 55", got, err)
	}
	delete(l.bytes, 7)
	if _, err := l.total(); err == nil {
		t.Error("generation 7 missing from the log, yet total succeeded")
	}
}
