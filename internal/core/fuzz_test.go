package core

import (
	"bytes"
	"testing"

	"repro/internal/dataframe"
)

// FuzzThicketFromBytes hardens the serialized-thicket reader behind
// `thicket -load` and the facade's LoadThicket/ThicketFromBytes:
// arbitrary input must either return an error or read into a thicket
// that passes Validate — never panic — and an accepted thicket must
// marshal to bytes that read back and marshal to the same bytes again.
func FuzzThicketFromBytes(f *testing.F) {
	// A small seed: a larger one (four MARBL profiles) stalls the fuzzer.
	th, err := FromProfiles(figure2Profiles(f), Options{IndexBy: "run"})
	if err != nil {
		f.Fatal(err)
	}
	if err := th.AggregateStats([]dataframe.ColKey{{"time"}}, []string{"mean", "std"}); err != nil {
		f.Fatal(err)
	}
	seed, err := th.MarshalBytes()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"format":"thicket-object","version":1,"profile_level":"profile"}`))
	f.Add([]byte(`{"format":"thicket-object","version":1,"profile_level":"profile","tree_paths":[["a"],["a","b"]]}`))
	f.Add([]byte(`{}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		th, err := ThicketFromBytes(data)
		if err != nil {
			return
		}
		if err := th.Validate(); err != nil {
			t.Fatalf("accepted thicket fails Validate: %v", err)
		}
		out, err := th.MarshalBytes()
		if err != nil {
			return // cells JSON cannot carry, such as ±Inf
		}
		back, err := ThicketFromBytes(out)
		if err != nil {
			t.Fatalf("marshalled thicket does not read back: %v\n%s", err, out)
		}
		again, err := back.MarshalBytes()
		if err != nil {
			t.Fatalf("re-marshal failed: %v", err)
		}
		if !bytes.Equal(out, again) {
			t.Fatalf("round trip changed the bytes:\n%s\n%s", out, again)
		}
	})
}
