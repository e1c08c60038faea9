package server

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataframe"
	"repro/internal/plan"
	"repro/internal/sim"
)

// valueJSON and frameRows are how the server rendered frames before
// renderJSON streamed them: one map per row, boxed cells, and
// encoding/json's reflection over the result. They are the reference
// renderJSON must match byte for byte.

// valueJSON converts a cell for JSON responses (typed nulls → null).
func valueJSON(v dataframe.Value) any {
	if v.IsNull() {
		return nil
	}
	switch v.Kind() {
	case dataframe.Float:
		return v.Float()
	case dataframe.Int:
		return v.Int()
	case dataframe.String:
		return v.Str()
	case dataframe.Bool:
		return v.Bool()
	}
	return nil
}

// frameRows renders a frame as JSON records: index levels under their
// level names, columns under their "/"-joined keys.
func frameRows(f *dataframe.Frame) []map[string]any {
	rows := make([]map[string]any, f.NRows())
	names := f.Index().Names()
	for r := 0; r < f.NRows(); r++ {
		rec := make(map[string]any, len(names)+f.NCols())
		for l, v := range f.Index().KeyAt(r) {
			rec[names[l]] = valueJSON(v)
		}
		for c := 0; c < f.NCols(); c++ {
			rec[f.ColIndex().Key(c).String()] = valueJSON(f.ColumnAt(c).At(r))
		}
		rows[r] = rec
	}
	return rows
}

// refRender is the reference rendering: json.MarshalIndent of the
// payload with every rows value replaced by frameRows, plus a newline.
func refRender(payload map[string]any) ([]byte, error) {
	ref := make(map[string]any, len(payload))
	for k, v := range payload {
		if r, ok := v.(rows); ok {
			v = frameRows(r.f)
		}
		ref[k] = v
	}
	b, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Cell pools reaching every branch of the encoders: float format edges,
// signed zero, NaN and ±Inf, extreme ints, and strings that need
// escaping (HTML characters, quotes, control bytes, U+2028/U+2029,
// invalid UTF-8) beside ones that do not.
var (
	renderFloats = []float64{
		0, math.Copysign(0, -1), 1, -2.5, 123.456, 1e-6, -1e-6, 9.99e-7, 1e-7, 1.5e-10,
		1e20, 999999999999999999999, 1e21, -1e21, 1.7e308, math.SmallestNonzeroFloat64,
		math.MaxFloat64, 0.1, 1.0 / 3, math.NaN(),
	}
	renderInts    = []int64{0, 1, -1, 42, math.MinInt64, math.MaxInt64, 1 << 53}
	renderStrings = []string{
		"", "plain", "with space", "<tag>", "a&b", `q"uote`, `back\slash`, "tab\there",
		"nl\n", "\x00\x01\x1f", "\x7f", " ", " ", "\xff\xfe", "é", "時間", "😀", "/",
	}
	// Labels whose "/"-joined keys collide with each other and with the
	// level names.
	renderLabels = []string{"a", "b", "a/b", "b/c", "c", "node", "time", "<x>", "é"}
	renderLevels = []string{"node", "a/b", "a/b/c", "profile", "time", "x&y"}
	renderKinds  = []dataframe.Kind{dataframe.Float, dataframe.Int, dataframe.String, dataframe.Bool}
)

// randomCell draws one cell of kind: a typed null about one time in
// six, ±Inf only when inf is set.
func randomCell(rng *rand.Rand, kind dataframe.Kind, inf bool) dataframe.Value {
	if rng.Intn(6) == 0 {
		return dataframe.Null(kind)
	}
	switch kind {
	case dataframe.Float:
		if inf && rng.Intn(8) == 0 {
			return dataframe.Float64(math.Inf(1 - 2*rng.Intn(2)))
		}
		if rng.Intn(3) == 0 {
			return dataframe.Float64(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(50)-25)))
		}
		return dataframe.Float64(renderFloats[rng.Intn(len(renderFloats))])
	case dataframe.Int:
		if rng.Intn(3) == 0 {
			return dataframe.Int64(rng.Int63() - rng.Int63())
		}
		return dataframe.Int64(renderInts[rng.Intn(len(renderInts))])
	case dataframe.String:
		return dataframe.Str(renderStrings[rng.Intn(len(renderStrings))])
	}
	return dataframe.BoolVal(rng.Intn(2) == 0)
}

// renderFrame builds a random frame: one to three index levels and up
// to six columns of random kinds, keys one or two labels deep.
func renderFrame(t *testing.T, rng *rand.Rand, nRows int, inf bool) *dataframe.Frame {
	t.Helper()
	column := func(name string, kind dataframe.Kind) *dataframe.Series {
		s := dataframe.NewSeries(name, kind)
		for r := 0; r < nRows; r++ {
			if err := s.Append(randomCell(rng, kind, inf)); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	var levels []*dataframe.Series
	for _, l := range rng.Perm(len(renderLevels))[:1+rng.Intn(3)] {
		levels = append(levels, column(renderLevels[l], renderKinds[rng.Intn(len(renderKinds))]))
	}
	ix, err := dataframe.NewIndex(levels...)
	if err != nil {
		t.Fatal(err)
	}
	depth := 1 + rng.Intn(2)
	seen := map[string]bool{}
	var keys []dataframe.ColKey
	var cols []*dataframe.Series
	for n := rng.Intn(7); n > 0; n-- {
		key := make(dataframe.ColKey, depth)
		for i := range key {
			key[i] = renderLabels[rng.Intn(len(renderLabels))]
		}
		if id := strings.Join(key, "\x00"); !seen[id] {
			seen[id] = true
			keys = append(keys, key)
			cols = append(cols, column(key.Leaf(), renderKinds[rng.Intn(len(renderKinds))]))
		}
	}
	f, err := dataframe.NewFrameWithColIndex(ix, keys, cols)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestRenderJSONMatchesMarshalIndent: renderJSON must write exactly what
// json.MarshalIndent wrote for the frameRows payload, error text
// included, over random frames of every kind and payloads carrying an
// explain tree and node lists.
func TestRenderJSONMatchesMarshalIndent(t *testing.T) {
	errs := 0
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nRows := rng.Intn(12)
		if rng.Intn(8) == 0 {
			nRows = 0
		}
		f := renderFrame(t, rng, nRows, seed%3 == 0)
		payload := map[string]any{"count": nRows, "rows": rows{f}}
		switch rng.Intn(4) {
		case 0:
			payload["explain"] = &plan.Explain{
				Where:    `name="<a&b>"`,
				Mode:     "store",
				Analyzed: true,
				Segments: []plan.SegmentExplain{{Segment: 0, Verdict: plan.VerdictScanned, Rows: nRows}},
				Columns:  []plan.ColumnExplain{{Column: "meta:a/b", BlocksDecoded: 1}},
			}
		case 1:
			payload["nodes"] = []string{"main", "main/<solve>", " "}
			payload["kept"], payload["total"] = 2, 3
		case 2:
			payload["x&y"] = math.Inf(1) // an unsupported value beside the rows
		}
		want, wantErr := refRender(payload)
		got, err := renderJSON(payload)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("seed %d: error %v, reference %v", seed, err, wantErr)
		}
		if err != nil {
			errs++
			continue
		}
		if string(got) != string(want) {
			t.Fatalf("seed %d: rendering differs\n got: %s\nwant: %s", seed, got, want)
		}
	}
	if errs == 0 || errs == 300 {
		t.Fatalf("%d of 300 payloads failed to encode; want some of each", errs)
	}
}

// TestRenderJSONNestedRows: a rows value below the payload's top level
// encodes through MarshalJSON, to the same bytes the frameRows value
// gave there.
func TestRenderJSONNestedRows(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		f := renderFrame(t, rand.New(rand.NewSource(seed)), int(seed%5), false)
		got, err := renderJSON(map[string]any{"outer": map[string]any{"rows": rows{f}}, "list": []any{rows{f}}})
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.MarshalIndent(map[string]any{"outer": map[string]any{"rows": frameRows(f)}, "list": []any{frameRows(f)}}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want)+"\n" {
			t.Fatalf("seed %d: nested rows differ\n got: %s\nwant: %s", seed, got, want)
		}
	}
}

// TestRenderJSONOtherPayloads: payloads that are not a map[string]any,
// a nil map and an empty one render as json.MarshalIndent writes them.
func TestRenderJSONOtherPayloads(t *testing.T) {
	var nilMap map[string]any
	for _, v := range []any{map[string]string{"error": "<bad> & \"worse\""}, []int{1, 2}, nilMap, map[string]any{}, nil, plan.ExecStats{Rows: 3}} {
		want, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		got, err := renderJSON(v)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want)+"\n" {
			t.Fatalf("%#v: got %q, want %q", v, got, want)
		}
	}
}

var (
	fig13Once sync.Once
	fig13Meta *dataframe.Frame
)

// fig13Metadata is the metadata frame of the 560-profile Figure-13
// ensemble: the payload /api/profiles renders for the whole store.
func fig13Metadata(b *testing.B) *dataframe.Frame {
	b.Helper()
	fig13Once.Do(func() {
		ps, err := sim.Figure13Ensemble(1)
		if err != nil {
			b.Fatal(err)
		}
		th, err := core.FromProfiles(ps, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		fig13Meta = th.Metadata
	})
	return fig13Meta
}

// BenchmarkRenderRef renders the Figure-13 metadata the old way:
// frameRows, then json.MarshalIndent.
func BenchmarkRenderRef(b *testing.B) {
	meta := fig13Metadata(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := refRender(map[string]any{"count": meta.NRows(), "rows": rows{meta}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRenderNew renders the same payload with renderJSON.
func BenchmarkRenderNew(b *testing.B) {
	meta := fig13Metadata(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := renderJSON(map[string]any{"count": meta.NRows(), "rows": rows{meta}}); err != nil {
			b.Fatal(err)
		}
	}
}
