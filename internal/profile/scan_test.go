package profile_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/dataframe"
	"repro/internal/profile"
	"repro/internal/sim"
)

// writerOutputs returns the WriteJSON output of every profile of the
// simulators' generators: the Figure-13 RAJA rows (timing and GPU
// tools), MARBL, topdown, timing, and GPU with NCU.
func writerOutputs(t testing.TB) map[string][][]byte {
	t.Helper()
	ensembles := map[string]func() ([]*profile.Profile, error){
		"figure13": func() ([]*profile.Profile, error) { return sim.Figure13Ensemble(1) },
		"marbl": func() ([]*profile.Profile, error) {
			return sim.MarblEnsemble(sim.BothClusters(), sim.Figure16Nodes(), 2, 1)
		},
		"topdown": func() ([]*profile.Profile, error) {
			return sim.TopdownEnsemble([]int64{1048576, 4194304}, []string{"-O0", "-O3"}, 2, 1)
		},
		"timing": func() ([]*profile.Profile, error) { return sim.TimingEnsemble([]int64{1048576, 8388608}, 2, 1) },
		"gpu-ncu": func() ([]*profile.Profile, error) {
			return sim.GPUEnsemble([]int64{1048576}, 256, 2, true, 1)
		},
	}
	out := map[string][][]byte{}
	for name, gen := range ensembles {
		ps, err := gen()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, p := range ps {
			b, err := p.MarshalBytes()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			out[name] = append(out[name], b)
		}
	}
	return out
}

// assertSameProfile checks two decoded profiles are equal: the same
// serialization, metadata key order, metric name order and hash.
func assertSameProfile(t *testing.T, label string, want, got *profile.Profile) {
	t.Helper()
	wb, err := want.MarshalBytes()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	gb, err := got.MarshalBytes()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	switch {
	case !bytes.Equal(wb, gb):
		t.Fatalf("%s: serializations differ\n got %s\nwant %s", label, gb, wb)
	case !slices.Equal(want.MetaKeys(), got.MetaKeys()):
		t.Fatalf("%s: metadata keys %q, want %q", label, got.MetaKeys(), want.MetaKeys())
	case !slices.Equal(want.MetricNames(), got.MetricNames()):
		t.Fatalf("%s: metric names %q, want %q", label, got.MetricNames(), want.MetricNames())
	case want.Hash() != got.Hash():
		t.Fatalf("%s: hash %d, want %d", label, got.Hash(), want.Hash())
	}
}

// TestScannerTakesWriterOutput checks that the single-pass scanner, not
// the general decoder, decodes what the writer emits for every
// simulator, and decodes it as the general decoder does. A writer change
// the scanner does not follow would otherwise lose the fast path
// silently.
func TestScannerTakesWriterOutput(t *testing.T) {
	for name, outputs := range writerOutputs(t) {
		for i, b := range outputs {
			label := fmt.Sprintf("%s profile %d", name, i)
			got, ok := profile.ScanProfile(b)
			if !ok {
				t.Fatalf("%s: the scanner handed writer output to the general decoder:\n%s", label, b)
			}
			want, err := profile.ReadJSONGeneral(bytes.NewReader(b))
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			assertSameProfile(t, label, want, got)
		}
	}
}

// handOverInputs are inputs the scanner must hand to the general
// decoder: one per encoding/json quirk it does not copy, and one per
// shape outside the writer's.
var handOverInputs = []string{
	// A repeated nodes member decodes into the first one's elements:
	// one node b carrying x=1.
	`{"format":"thicket-profile","version":1,"nodes":[{"path":["a"],"metrics":{"x":1}}],"nodes":[{"path":["b"]}]}`,
	// Member names match case-insensitively.
	`{"FORMAT":"thicket-profile","Version":1,"nodes":[{"Path":["a"]}]}`,
	// Bytes after the object are ignored.
	`{"format":"thicket-profile","version":1,"nodes":[{"path":["a"]}]} trailing [`,
	// A null path element reads as "".
	`{"format":"thicket-profile","version":1,"nodes":[{"path":["a",null]}]}`,
	// Escapes other than the writer's, and non-ASCII.
	`{"format":"thicket-profile","version":1,"metadata":{"k":"a\"bé"},"nodes":[{"path":["a\/b"]}]}`,
	`{"format":"thicket-profile","version":1,"nodes":[{"path":["a\u003Cb\n"]}]}`,
	`{"format":"thicket-profile","version":1,"metadata":{"k":"ünï"},"nodes":[{"path":["mäin"]}]}`,
	`{"format":"thicket-profile","version":1.0,"nodes":[{"path":["a"]}]}`,
	// A nested metric value.
	`{"format":"thicket-profile","version":1,"nodes":[{"path":["a"],"metrics":{"x":{"y":1}}}]}`,
}

// TestScannerHandsOver checks the scanner takes none of handOverInputs;
// FuzzFromBytes' seeds check FromBytes then decodes them as the general
// decoder does. The first four are the quirks the reader keeps: FromBytes accepts them.
func TestScannerHandsOver(t *testing.T) {
	for i, in := range handOverInputs {
		if _, ok := profile.ScanProfile([]byte(in)); ok {
			t.Errorf("the scanner took %s", in)
		}
		if _, err := profile.FromBytes([]byte(in)); i < 4 && err != nil {
			t.Errorf("%s: %v", in, err)
		}
	}
}

// FuzzFromBytes checks FromBytes against the general decoder: both fail
// with the same error, or both give equal profiles. Arbitrary input
// never panics, and a parsed profile passes Validate and round-trips.
// The seeds cover the writer's output of each simulator and one input
// per case the scanner hands over.
func FuzzFromBytes(f *testing.F) {
	seed, err := func() ([]byte, error) {
		p := profile.New()
		p.SetMeta("cluster", dataframe.Str("quartz"))
		if err := p.AddSample([]string{"main", "solve"}, nil); err != nil {
			return nil, err
		}
		return p.MarshalBytes()
	}()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"format":"thicket-profile","version":1,"nodes":[{"path":["a"]}]}`))
	f.Add([]byte(`{"format":"thicket-profile","version":1,"metadata":{"x":1.5},"nodes":[{"path":["a","b"],"metrics":{"t":2}}]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"format":"thicket-profile","version":1,"nodes":[{"path":[""]}]}`))
	outputs := writerOutputs(f)
	for _, name := range []string{"figure13", "marbl", "topdown", "timing", "gpu-ncu"} {
		f.Add(outputs[name][0])
	}
	// The writer's own escapes, which the scanner takes.
	f.Add([]byte(`{"format":"thicket-profile","version":1,"metadata":{"k":"a\"b\\c\u003c\u0026"},"nodes":[{"path":["x-\u003ey"],"metrics":{"\u003cm\u003e":1}}]}`))
	for _, in := range handOverInputs {
		f.Add([]byte(in))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := profile.FromBytes(data)
		want, wantErr := profile.ReadJSONGeneral(bytes.NewReader(data))
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("FromBytes error %v, general decoder %v", err, wantErr)
		}
		if err != nil {
			return
		}
		assertSameProfile(t, "FromBytes", want, got)
		if verr := got.Validate(); verr != nil {
			t.Fatalf("parsed profile fails validation: %v", verr)
		}
		// Successful parses round-trip.
		out, err := got.MarshalBytes()
		if err != nil {
			t.Fatalf("re-marshal failed: %v", err)
		}
		back, err := profile.FromBytes(out)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if back.Tree().Len() != got.Tree().Len() {
			t.Fatalf("round trip changed tree size %d -> %d", got.Tree().Len(), back.Tree().Len())
		}
	})
}
