package core_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/store"
)

// TestFromProfilesSegmentBytes checks that the segment store.Create
// writes from FromProfiles' thicket of each Figure-13 row is byte for
// byte the one it writes from refFromProfiles' thicket: the same column
// order, kinds and string dictionaries.
func TestFromProfilesSegmentBytes(t *testing.T) {
	dir := t.TempDir()
	for i, row := range sim.Figure13Rows() {
		profiles, err := sim.RajaEnsemble(row, 1)
		if err != nil {
			t.Fatal(err)
		}
		var files [2][]byte
		for side, compose := range []func() (*core.Thicket, error){
			func() (*core.Thicket, error) { return core.RefFromProfiles(profiles, core.Options{}) },
			func() (*core.Thicket, error) { return core.FromProfiles(profiles, core.Options{}) },
		} {
			th, err := compose()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, fmt.Sprintf("row%d-%d.tks", i, side))
			if err := store.Create(path, th); err != nil {
				t.Fatal(err)
			}
			if files[side], err = os.ReadFile(path); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(files[0], files[1]) {
			t.Fatalf("row %d: segments differ (%d and %d bytes)", i, len(files[0]), len(files[1]))
		}
	}
}
