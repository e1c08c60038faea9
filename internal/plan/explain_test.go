package plan_test

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/dataframe"
	"repro/internal/plan"
	"repro/internal/store"
)

// countingObserver counts live block reads; optionally cancels the
// query after a threshold — the mid-scan cancellation probe.
type countingObserver struct {
	reads       atomic.Int64
	cancelAfter int64
	cancel      context.CancelFunc
}

func (o *countingObserver) BlockRead(frame, column string) {
	if o.reads.Add(1) == o.cancelAfter && o.cancel != nil {
		o.cancel()
	}
}

// stageRecorder captures the lifecycle stages the executor reports.
type stageRecorder struct {
	mu     chan struct{} // 1-buffered mutex (keeps the type trivially racable under -race)
	stages []string
}

func newStageRecorder() *stageRecorder {
	r := &stageRecorder{mu: make(chan struct{}, 1)}
	r.mu <- struct{}{}
	return r
}

func (r *stageRecorder) Stage(stage string) {
	<-r.mu
	r.stages = append(r.stages, stage)
	r.mu <- struct{}{}
}

func (r *stageRecorder) snapshot() []string {
	<-r.mu
	out := append([]string(nil), r.stages...)
	r.mu <- struct{}{}
	return out
}

// segmentsByVerdict indexes a tree's segments.
func segmentsByVerdict(ex *plan.Explain) map[string][]plan.SegmentExplain {
	out := map[string][]plan.SegmentExplain{}
	for _, se := range ex.Segments {
		out[se.Verdict] = append(out[se.Verdict], se)
	}
	return out
}

// TestPlanStoreVerdicts: EXPLAIN (plan-only) classifies each segment
// with the right verdict and deciding predicate, estimates block counts
// from headers alone, and never reads a block.
func TestPlanStoreVerdicts(t *testing.T) {
	allNull := ensemble(t, 70, 2000, 3, false)
	for _, p := range allNull {
		p.SetMeta("ratio", dataframe.Float64(math.NaN()))
	}
	s := buildStore(t,
		ensemble(t, 71, 0, 4, false),    // ids 0..3: the survivor
		ensemble(t, 72, 1000, 4, false), // ids 1000..1003: zone-map prey
		allNull,                         // ratio all-NaN: null-count prey
	)

	cases := []struct {
		name    string
		exprs   []string
		verdict string // expected non-scanned verdict
		pruned  int
	}{
		{"zonemap", []string{"id<=3"}, plan.VerdictPrunedZoneMap, 2},
		{"dict", []string{"group=doesnotexist"}, plan.VerdictPrunedDict, 3},
		{"nullcount", []string{"id>=2000", "ratio=2.5"}, plan.VerdictPrunedNullCount, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			preds, err := plan.Compile(tc.exprs)
			if err != nil {
				t.Fatal(err)
			}
			obs := &countingObserver{}
			ctx := store.WithScanObserver(context.Background(), obs)
			ex, err := plan.PlanStore(ctx, s, preds)
			if err != nil {
				t.Fatal(err)
			}
			if ex.Analyzed || ex.Mode != "store" {
				t.Fatalf("plan-only tree: analyzed=%v mode=%q", ex.Analyzed, ex.Mode)
			}
			if got := obs.reads.Load(); got != 0 {
				t.Fatalf("EXPLAIN read %d blocks; must cost zero block reads", got)
			}
			if len(ex.Segments) != 3 {
				t.Fatalf("tree has %d segments, want 3", len(ex.Segments))
			}
			by := segmentsByVerdict(ex)
			if n := len(by[tc.verdict]); n < 1 {
				t.Fatalf("no %s verdict in %+v", tc.verdict, ex.Segments)
			}
			totalPruned := len(ex.Segments) - len(by[plan.VerdictScanned])
			if totalPruned != tc.pruned || ex.Stats.SegmentsPruned != tc.pruned {
				t.Errorf("pruned %d segments (stats %d), want %d",
					totalPruned, ex.Stats.SegmentsPruned, tc.pruned)
			}
			for _, se := range ex.Segments {
				switch se.Verdict {
				case plan.VerdictScanned:
					// Unknown without executing; a pruned segment's 0 is a
					// header-level proof, not a measurement.
					if se.RowsMatched != -1 {
						t.Errorf("plan-only scanned segment %d has RowsMatched=%d, want -1 (unknown)", se.Segment, se.RowsMatched)
					}
					if se.BlocksDecoded == 0 || se.Predicate != "" {
						t.Errorf("scanned segment %d: estimate=%d predicate=%q", se.Segment, se.BlocksDecoded, se.Predicate)
					}
				default:
					if se.RowsMatched != 0 {
						t.Errorf("pruned segment %d has RowsMatched=%d, want 0 (proven empty)", se.Segment, se.RowsMatched)
					}
					if se.BlocksDecoded != 0 || se.BlocksSkipped == 0 {
						t.Errorf("pruned segment %d decodes %d blocks, skips %d", se.Segment, se.BlocksDecoded, se.BlocksSkipped)
					}
					if se.Predicate == "" {
						t.Errorf("pruned segment %d names no deciding predicate", se.Segment)
					}
				}
			}
		})
	}
}

// TestAnalyzeStoreMatchesExecute: EXPLAIN ANALYZE returns the tree that
// ExecuteStore keeps only the stats of — the result must stay
// bit-identical to ExecuteStore/NaiveFilter, the tree's stats must equal
// ExecuteStore's ExecStats, and every per-segment line must sum to the
// totals.
func TestAnalyzeStoreMatchesExecute(t *testing.T) {
	s := buildStore(t,
		ensemble(t, 80, 0, 4, false),
		ensemble(t, 81, 1000, 4, false),
	)
	naive, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	preds, _ := plan.Compile([]string{"id<=3"})
	want, wantStats, err := plan.ExecuteStore(s, preds)
	if err != nil {
		t.Fatal(err)
	}
	got, ex, err := plan.AnalyzeStore(context.Background(), s, preds)
	if err != nil {
		t.Fatal(err)
	}
	assertThicketsEqual(t, "analyze vs execute", want, got)
	assertThicketsEqual(t, "analyze vs naive", plan.NaiveFilter(naive, preds), got)
	if !ex.Analyzed {
		t.Error("analyzed tree not marked analyzed")
	}
	if ex.Stats != wantStats {
		t.Errorf("tree stats %+v != ExecuteStore stats %+v", ex.Stats, wantStats)
	}
	var decoded, skipped, matched int
	for _, se := range ex.Segments {
		decoded += se.BlocksDecoded
		skipped += se.BlocksSkipped
		if se.Verdict == plan.VerdictScanned {
			if se.RowsMatched < 0 {
				t.Errorf("analyzed scanned segment %d has unmeasured RowsMatched", se.Segment)
			}
			matched += se.RowsMatched
		}
	}
	if decoded != ex.Stats.BlocksScanned || skipped != ex.Stats.BlocksSkipped {
		t.Errorf("segment block sums (%d, %d) != stats (%d, %d)",
			decoded, skipped, ex.Stats.BlocksScanned, ex.Stats.BlocksSkipped)
	}
	if matched != ex.Stats.RowsMaterialized {
		t.Errorf("segment RowsMatched sum %d != RowsMaterialized %d", matched, ex.Stats.RowsMaterialized)
	}
	var colDecoded int
	for _, c := range ex.Columns {
		colDecoded += c.BlocksDecoded
	}
	if colDecoded != ex.Stats.BlocksScanned {
		t.Errorf("column decode sum %d != BlocksScanned %d", colDecoded, ex.Stats.BlocksScanned)
	}
	if ex.Stages.PruneNS <= 0 || ex.Stages.FilterNS <= 0 || ex.Stages.MaterializeNS <= 0 {
		t.Errorf("analyzed tree missing stage times: %+v", ex.Stages)
	}
}

// TestStoreScanCancellation: a context canceled mid-scan (here by the
// scan observer itself, after the first block) stops the executor at
// the next block boundary with context.Canceled.
func TestStoreScanCancellation(t *testing.T) {
	s := buildStore(t, ensemble(t, 90, 0, 6, false), ensemble(t, 91, 100, 6, false))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	obs := &countingObserver{cancelAfter: 1, cancel: cancel}
	ctx = store.WithScanObserver(ctx, obs)
	rec := newStageRecorder()
	ctx = plan.WithProgress(ctx, rec)

	preds, _ := plan.Compile([]string{"group!=doesnotexist"}) // full scan: nothing prunes
	_, _, err := plan.AnalyzeStore(ctx, s, preds)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-scan cancel returned %v, want context.Canceled", err)
	}
	reads := obs.reads.Load()
	if reads == 0 {
		t.Fatal("observer saw no block reads before the cancel")
	}
	// The scan stopped at a block boundary: far short of the full scan.
	full, fullStats, err := plan.ExecuteStore(s, preds)
	if err != nil {
		t.Fatal(err)
	}
	if full == nil || fullStats.BlocksScanned == 0 {
		t.Fatal("full-scan reference did not run")
	}
	if reads >= int64(fullStats.BlocksScanned) {
		t.Errorf("canceled scan still read %d of %d blocks", reads, fullStats.BlocksScanned)
	}
	stages := rec.snapshot()
	if len(stages) == 0 || stages[0] != plan.StagePrune {
		t.Errorf("executor reported stages %v, want %q first", stages, plan.StagePrune)
	}
	for _, st := range stages {
		if st == plan.StageMaterialize {
			t.Errorf("canceled query reached %q: %v", plan.StageMaterialize, stages)
		}
	}

	// A context canceled before execution returns immediately.
	dead, deadCancel := context.WithCancel(context.Background())
	deadCancel()
	if _, _, err := plan.AnalyzeStore(dead, s, preds); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled context returned %v", err)
	}
}
