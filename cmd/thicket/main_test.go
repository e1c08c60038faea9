package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/profile"
	"repro/internal/sim"
)

// writeEnsemble saves a small MARBL ensemble for CLI tests and returns
// its directory.
func writeEnsemble(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	profiles, err := sim.MarblEnsemble([]sim.MarblCluster{sim.ClusterRZTopaz, sim.ClusterAWS}, []int{1, 4}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range profiles {
		if err := p.Save(filepath.Join(dir, filePrefix(i)+".json")); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func filePrefix(i int) string { return "p" + string(rune('a'+i)) }

// invoke runs one subcommand, capturing stdout.
func invoke(t *testing.T, args ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return sb.String()
}

func TestCLISubcommands(t *testing.T) {
	dir := writeEnsemble(t)

	out := invoke(t, "metadata", "-dir", dir, "-columns", "cluster,numhosts")
	if !strings.Contains(out, "rztopaz") || !strings.Contains(out, "numhosts") {
		t.Errorf("metadata output:\n%s", out)
	}

	out = invoke(t, "tree", "-dir", dir, "-metric", "Avg time/rank")
	if !strings.Contains(out, "timeStepLoop") {
		t.Errorf("tree output:\n%s", out)
	}

	out = invoke(t, "treetable", "-dir", dir, "-metrics", "Avg time/rank")
	if !strings.Contains(out, "call tree") || !strings.Contains(out, "Avg time/rank_mean") {
		t.Errorf("treetable output:\n%s", out)
	}

	out = invoke(t, "stats", "-dir", dir, "-metrics", "Avg time/rank", "-aggs", "mean,cv")
	if !strings.Contains(out, "Avg time/rank_cv") {
		t.Errorf("stats output:\n%s", out)
	}

	out = invoke(t, "filter", "-dir", dir, "-where", "cluster=rztopaz")
	if !strings.Contains(out, "4 of 8 profiles") {
		t.Errorf("filter output:\n%s", out)
	}

	out = invoke(t, "groupby", "-dir", dir, "-by", "cluster")
	if !strings.Contains(out, "2 thickets created") {
		t.Errorf("groupby output:\n%s", out)
	}

	out = invoke(t, "query", "-dir", dir, "-q", ". name == main / . name == timeStepLoop / *")
	if !strings.Contains(out, "query kept") {
		t.Errorf("query output:\n%s", out)
	}

	out = invoke(t, "summary", "-dir", dir, "-by", "cluster,numhosts")
	if !strings.Contains(out, "#profiles") {
		t.Errorf("summary output:\n%s", out)
	}

	out = invoke(t, "model", "-dir", dir, "-metric", "Avg time/rank", "-param", "mpi.world.size")
	if !strings.Contains(out, "R²") {
		t.Errorf("model output:\n%s", out)
	}

	out = invoke(t, "groupstats", "-dir", dir, "-by", "cluster", "-metrics", "Avg time/rank", "-aggs", "mean")
	if !strings.Contains(out, "Avg time/rank_mean") {
		t.Errorf("groupstats output:\n%s", out)
	}

	out = invoke(t, "pivot", "-dir", dir, "-metric", "Avg time/rank", "-by", "numhosts")
	if !strings.Contains(out, "timeStepLoop") {
		t.Errorf("pivot output:\n%s", out)
	}

	out = invoke(t, "dot", "-dir", dir)
	if !strings.Contains(out, "digraph") {
		t.Errorf("dot output:\n%s", out)
	}

	// -metric prefixes each label with the node's mean across profiles.
	profiles, err := profile.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, p := range profiles {
		root := p.Tree().Nodes()[0]
		cell, _ := p.Metric(root.Key(), "Avg time/rank")
		v, ok := cell.AsFloat()
		if root.PathString() != "main" || !ok {
			t.Fatalf("profile lacks Avg time/rank at main")
		}
		sum += v
	}
	out = invoke(t, "dot", "-dir", dir, "-metric", "Avg time/rank")
	if want := fmt.Sprintf(`label="%.4g\nmain"`, sum/float64(len(profiles))); !strings.Contains(out, want) {
		t.Errorf("dot -metric output lacks %s:\n%s", want, out)
	}
	if err := run([]string{"dot", "-dir", dir, "-metric", "nosuchmetric"}, &strings.Builder{}); err == nil {
		t.Error("dot -metric with an unknown metric should fail")
	}

	out = invoke(t, "describe", "-dir", dir)
	if !strings.Contains(out, "median") {
		t.Errorf("describe output:\n%s", out)
	}

	out = invoke(t, "hist", "-dir", dir, "-metric", "Avg time/rank", "-node", "main/timeStepLoop", "-bins", "3")
	if !strings.Contains(out, "█") {
		t.Errorf("hist output:\n%s", out)
	}

	out = invoke(t, "box", "-dir", dir, "-metric", "Avg time/rank", "-node", "main/timeStepLoop", "-by", "cluster")
	if !strings.Contains(out, "scale") {
		t.Errorf("box output:\n%s", out)
	}

	out = invoke(t, "imbalance", "-dir", dir, "-metric", "Avg time/rank", "-maxmetric", "max#inclusive#sum#time.duration")
	if !strings.Contains(out, "imbalance") {
		t.Errorf("imbalance output:\n%s", out)
	}
}

func TestCLIPersistenceRoundTrip(t *testing.T) {
	dir := writeEnsemble(t)
	outDir := t.TempDir()

	snapshot := filepath.Join(outDir, "m.thicket.json")
	out := invoke(t, "save", "-dir", dir, "-o", snapshot)
	if !strings.Contains(out, "wrote") {
		t.Errorf("save output:\n%s", out)
	}
	out = invoke(t, "metadata", "-load", snapshot)
	if !strings.Contains(out, "loaded 8 profiles") {
		t.Errorf("load output:\n%s", out)
	}

	csvDir := filepath.Join(outDir, "csv")
	invoke(t, "export", "-dir", dir, "-o", csvDir)
	if _, err := os.Stat(filepath.Join(csvDir, "perf_data.csv")); err != nil {
		t.Errorf("export missing CSV: %v", err)
	}
}

func TestCLIConvertAndCompose(t *testing.T) {
	outDir := t.TempDir()
	cali := filepath.Join(outDir, "in.json")
	caliDoc := `{"data":[[10.0,0],[7.0,1]],"columns":["time","path"],
	  "column_metadata":[{"is_value":true},{"is_value":false}],
	  "nodes":[{"label":"main","parent":null},{"label":"solve","parent":0}],
	  "globals":{"cluster":"quartz","problem size":1}}`
	if err := os.WriteFile(cali, []byte(caliDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	converted := filepath.Join(outDir, "prof", "a.json")
	out := invoke(t, "convert", "-caliper", cali, "-o", converted)
	if !strings.Contains(out, "converted") {
		t.Errorf("convert output:\n%s", out)
	}
	if _, err := profile.Load(converted); err != nil {
		t.Fatal(err)
	}

	// Compose the converted dir with itself under two groups.
	dirA := filepath.Dir(converted)
	out = invoke(t, "compose", "-dirs", dirA+","+dirA, "-groups", "A,B", "-index-by", "problem size")
	if !strings.Contains(out, "composed 2 thickets") {
		t.Errorf("compose output:\n%s", out)
	}
}

func TestCLIErrors(t *testing.T) {
	dir := writeEnsemble(t)
	cases := [][]string{
		{},
		{"metadata"},                      // no -dir
		{"bogus", "-dir", dir},            // unknown subcommand
		{"query", "-dir", dir},            // missing -q
		{"filter", "-dir", dir},           // missing -where
		{"model", "-dir", dir},            // missing -metric/-param
		{"hist", "-dir", dir},             // missing -metric/-node
		{"save", "-dir", dir},             // missing -o
		{"convert"},                       // missing -caliper/-o
		{"compose", "-dirs", dir},         // missing groups
		{"metadata", "-dir", "/nonexist"}, // bad dir
		{"serve", "-store", "x.tks"},      // unknown subcommand, unknown flag
		{"serve"},                         // unknown subcommand, no data source
	}
	var sb strings.Builder
	for _, args := range cases {
		if err := run(args, &sb); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
	// An unknown subcommand is named before any flag parses or any data
	// source loads.
	for _, args := range [][]string{{"bogus", "-dir", dir}, {"serve", "-store", "x.tks"}, {"serve"}} {
		want := fmt.Sprintf("unknown subcommand %q", args[0])
		if err := run(args, &sb); err == nil || err.Error() != want {
			t.Errorf("run(%v) = %v, want %s", args, err, want)
		}
	}
}
