package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	thicket "repro"
	"repro/internal/sim"
)

// writeEnsembleSeed is writeEnsemble with a chosen simulator seed, for
// building a second, disjoint profile set to append.
func writeEnsembleSeed(t *testing.T, seed int64) string {
	t.Helper()
	dir := t.TempDir()
	profiles, err := sim.MarblEnsemble([]sim.MarblCluster{sim.ClusterRZTopaz, sim.ClusterAWS}, []int{1, 4}, 2, seed)
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

func TestStoreSubcommand(t *testing.T) {
	dir := writeEnsemble(t)
	storePath := filepath.Join(t.TempDir(), "ensemble.tks")

	out := invoke(t, "store", "create", "-store", storePath, "-dir", dir)
	if !strings.Contains(out, "created "+storePath) || !strings.Contains(out, "8 profiles") {
		t.Errorf("store create output:\n%s", out)
	}

	out = invoke(t, "store", "info", "-store", storePath)
	for _, want := range []string{"segments:      1", "profiles:      8", "Avg time/rank", "cluster", "float"} {
		if !strings.Contains(out, want) {
			t.Errorf("store info output missing %q:\n%s", want, out)
		}
	}

	out = invoke(t, "store", "ls", "-store", storePath)
	if !strings.Contains(out, "8 profiles") || !strings.Contains(out, "rztopaz") {
		t.Errorf("store ls output:\n%s", out)
	}

	// Append a disjoint ensemble (different simulator seed → different
	// profile hashes); the store grows in place.
	out = invoke(t, "store", "append", "-store", storePath, "-dir", writeEnsembleSeed(t, 2))
	if !strings.Contains(out, "appended 8 profiles") || !strings.Contains(out, "now 16 profiles in 2 segments") {
		t.Errorf("store append output:\n%s", out)
	}

	// The EDA subcommands accept the store as a load source.
	out = invoke(t, "metadata", "-ensemble-store", storePath, "-columns", "cluster,numhosts")
	if !strings.Contains(out, "loaded 16 profiles") || !strings.Contains(out, "rztopaz") {
		t.Errorf("metadata -ensemble-store output:\n%s", out)
	}
	out = invoke(t, "stats", "-ensemble-store", storePath, "-metrics", "Avg time/rank", "-aggs", "mean")
	if !strings.Contains(out, "Avg time/rank_mean") {
		t.Errorf("stats -ensemble-store output:\n%s", out)
	}
}

func TestStoreSubcommandErrors(t *testing.T) {
	dir := writeEnsemble(t)
	storePath := filepath.Join(t.TempDir(), "ensemble.tks")
	invoke(t, "store", "create", "-store", storePath, "-dir", dir)

	// A single-file store, which is written once: append and create
	// over it must fail and leave it as it was.
	profiles, err := thicket.LoadProfileDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	th, err := thicket.FromProfiles(profiles, thicket.Options{})
	if err != nil {
		t.Fatal(err)
	}
	single := filepath.Join(t.TempDir(), "single.tks")
	if err := thicket.CreateStore(single, th); err != nil {
		t.Fatal(err)
	}
	singleBytes, err := os.ReadFile(single)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name     string
		args     []string
		wantText string
	}{
		{"missing action", []string{"store"}, "requires an action"},
		{"unknown action", []string{"store", "frobnicate", "-store", storePath}, "unknown store action"},
		{"missing store flag", []string{"store", "info"}, "-store"},
		{"create missing dir", []string{"store", "create", "-store", storePath}, "-dir"},
		{"open names path", []string{"store", "info", "-store", filepath.Join(dir, "absent.tks")}, "absent.tks"},
		{"duplicate append", []string{"store", "append", "-store", storePath, "-dir", dir}, "already present"},
		{"append to single file", []string{"store", "append", "-store", single, "-dir", writeEnsembleSeed(t, 2)}, single + ": read-only"},
		{"create over file", []string{"store", "create", "-store", single, "-dir", dir}, single},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var sb strings.Builder
			err := run(tc.args, &sb)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want error containing %q", tc.args, tc.wantText)
			}
			if !strings.Contains(err.Error(), tc.wantText) {
				t.Errorf("run(%v) error = %q, want substring %q", tc.args, err, tc.wantText)
			}
			if got, err := os.ReadFile(single); err != nil || !bytes.Equal(got, singleBytes) {
				t.Errorf("run(%v) changed the single-file store (err=%v)", tc.args, err)
			}
		})
	}
}
