package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// buildExplainStore creates a two-segment store (two disjoint simulator
// seeds) so the plan tree has real segments to prune.
func buildExplainStore(t *testing.T) string {
	t.Helper()
	storePath := filepath.Join(t.TempDir(), "ensemble.tks")
	invoke(t, "store", "create", "-store", storePath, "-dir", writeEnsemble(t))
	invoke(t, "store", "append", "-store", storePath, "-dir", writeEnsembleSeed(t, 2))
	return storePath
}

// TestExplainGolden pins the EXPLAIN (plan-only) renderings against
// golden files. Plan mode is deterministic — verdicts, deciding
// predicates, and would-decode block counts come from headers alone,
// and the renderer prints no wall times for unanalyzed plans.
func TestExplainGolden(t *testing.T) {
	storePath := buildExplainStore(t)
	cases := []struct {
		name  string
		where string
	}{
		{"explain_scan", "numhosts>=1"},       // every segment survives
		{"explain_zonemap", "numhosts>8"},     // numeric range prunes all
		{"explain_dict", "cluster=quartzite"}, // dictionary page prunes all
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := invoke(t, "explain", "-ensemble-store", storePath, "-where", tc.where)
			golden := filepath.Join("testdata", "golden", tc.name+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run `go test ./cmd/thicket -run TestExplainGolden -update`): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s output differs from %s\n--- got ---\n%s\n--- want ---\n%s",
					tc.name, golden, got, want)
			}
		})
	}
}

// TestExplainAnalyze checks the measured (EXPLAIN ANALYZE) rendering:
// stage times are nondeterministic, so assert structure, not bytes.
func TestExplainAnalyze(t *testing.T) {
	storePath := buildExplainStore(t)

	out := invoke(t, "explain", "-ensemble-store", storePath, "-where", "cluster=rztopaz", "-analyze")
	for _, want := range []string{
		"EXPLAIN ANALYZE where=\"cluster=rztopaz\" mode=store",
		"2 scanned, 0 pruned of 2",
		"matched=4",
		"stages: compile=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explain -analyze output missing %q:\n%s", want, out)
		}
	}

	// A -dir ensemble is planned as a one-segment in-memory store.
	out = invoke(t, "explain", "-dir", writeEnsemble(t), "-where", "cluster=rztopaz", "-analyze")
	for _, want := range []string{
		"mode=store",
		"1 scanned, 0 pruned of 1",
		"matched=4",
		"rows: 8 scanned, 4 materialized",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explain -dir -analyze output missing %q:\n%s", want, out)
		}
	}

	// Unknown columns fail compile, matching the filter verb.
	var sb strings.Builder
	if err := run([]string{"explain", "-ensemble-store", storePath, "-where", "nosuch=1"}, &sb); err == nil {
		t.Error("explain with unknown column succeeded, want error")
	}
}
