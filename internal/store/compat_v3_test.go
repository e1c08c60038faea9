package store_test

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataframe"
	"repro/internal/plan"
	"repro/internal/store"
)

// This file pins format version 3 the way compat_v1_test.go pins
// version 1: an independent writer re-implemented from the documented
// byte layout — delta-encoded int blocks, run-length dictionary
// blocks, zone maps and null counts in the header — plus a v2 writer
// that (legitimately) writes no statistics at all, so the planner's
// never-skip-without-evidence rule is observable.

type tColumnMeta struct {
	Key    []string `json:"key"`
	Kind   string   `json:"kind"`
	Offset uint64   `json:"offset"`
	Length uint64   `json:"length"`
	Min    *float64 `json:"min,omitempty"`
	Max    *float64 `json:"max,omitempty"`
	Nulls  *int     `json:"nulls,omitempty"`
}

type tFrameMeta struct {
	Name   string        `json:"name"`
	NRows  int           `json:"nrows"`
	Levels []tColumnMeta `json:"levels"`
	Cols   []tColumnMeta `json:"cols"`
}

type tHeader struct {
	Version      int          `json:"version"`
	ProfileLevel string       `json:"profile_level"`
	NProfiles    int          `json:"nprofiles"`
	TreePaths    [][]string   `json:"tree_paths"`
	Frames       []tFrameMeta `json:"frames"`
}

func tZigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// tEncodeBlock writes one block at the given format version. Version 2
// dict-encodes strings; version 3 additionally delta-encodes eligible
// int columns and run-length-encodes every string column — a stronger
// compat probe than mimicking the package writer's RLE heuristic, since
// the reader must accept any covering run list.
func tEncodeBlock(t testing.TB, s *dataframe.Series, version int) []byte {
	t.Helper()
	if version < 2 {
		return v1EncodeBlock(t, s)
	}
	n := s.Len()
	nulls := make([]byte, (n+7)/8)
	nNull := 0
	for i := 0; i < n; i++ {
		if s.At(i).IsNull() {
			nulls[i/8] |= 1 << (i % 8)
			nNull++
		}
	}
	switch s.Kind() {
	case dataframe.String:
		var words []string
		index := map[string]uint32{}
		local := make([]uint32, n)
		for i := 0; i < n; i++ {
			if v := s.At(i); !v.IsNull() {
				c, ok := index[v.Str()]
				if !ok {
					c = uint32(len(words))
					index[v.Str()] = c
					words = append(words, v.Str())
				}
				local[i] = c
			}
		}
		rle := version >= 3
		kind := byte(4) // kindStringDict
		if rle {
			kind = 6 // kindDictRLE
		}
		buf := []byte{kind}
		buf = v1AppendUvarint(buf, uint64(n))
		buf = append(buf, nulls...)
		buf = v1AppendUvarint(buf, uint64(len(words)))
		for _, w := range words {
			buf = v1AppendUvarint(buf, uint64(len(w)))
			buf = append(buf, w...)
		}
		if rle {
			for i := 0; i < n; {
				j := i + 1
				for j < n && local[j] == local[i] {
					j++
				}
				buf = v1AppendUvarint(buf, uint64(local[i]))
				buf = v1AppendUvarint(buf, uint64(j-i))
				i = j
			}
		} else {
			for i := 0; i < n; i++ {
				buf = v1AppendUvarint(buf, uint64(local[i]))
			}
		}
		return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	case dataframe.Int:
		if version >= 3 && nNull == 0 && n >= 2 {
			raw := s.IntData()
			mono := true
			for i := 1; i < n; i++ {
				if raw[i] < raw[i-1] {
					mono = false
					break
				}
			}
			if mono {
				buf := []byte{5} // kindIntDelta
				buf = v1AppendUvarint(buf, uint64(n))
				buf = append(buf, nulls...)
				buf = v1AppendUvarint(buf, tZigzag(raw[0]))
				for i := 1; i < n; i++ {
					buf = v1AppendUvarint(buf, uint64(raw[i])-uint64(raw[i-1]))
				}
				return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
			}
		}
	}
	return v1EncodeBlock(t, s)
}

// tEncodeSegment writes one complete segment (prelude + header + data)
// at the given version. Version 2 writes no column statistics; version
// 3 writes zone maps and null counts.
func tEncodeSegment(t testing.TB, th *core.Thicket, version int) []byte {
	t.Helper()
	hdr := tHeader{
		Version:      version,
		ProfileLevel: th.ProfileLevelName(),
		NProfiles:    th.NumProfiles(),
		TreePaths:    th.Tree.Paths(),
	}
	var data []byte
	for _, fr := range []struct {
		name  string
		frame *dataframe.Frame
	}{{"perf", th.PerfData}, {"meta", th.Metadata}, {"stats", th.Stats}} {
		fm := tFrameMeta{Name: fr.name, NRows: fr.frame.NRows()}
		put := func(key []string, s *dataframe.Series) tColumnMeta {
			blk := tEncodeBlock(t, s, version)
			cm := tColumnMeta{Key: key, Kind: s.Kind().String(), Offset: uint64(len(data)), Length: uint64(len(blk))}
			if version >= 3 {
				nNull := 0
				var lo, hi float64
				seen, poisoned := false, false
				for i := 0; i < s.Len(); i++ {
					v := s.At(i)
					if v.IsNull() {
						nNull++
						if v.Kind() == dataframe.Float && math.IsNaN(v.Float()) {
							poisoned = true // unmasked NaN payload opens the map
						}
						continue
					}
					if f, ok := v.AsFloat(); ok && (s.Kind() == dataframe.Int || s.Kind() == dataframe.Float) {
						if !seen || f < lo {
							lo = f
						}
						if !seen || f > hi {
							hi = f
						}
						seen = true
					}
				}
				if seen && !poisoned {
					cm.Min, cm.Max = &lo, &hi
				}
				cm.Nulls = &nNull
			}
			data = append(data, blk...)
			return cm
		}
		ix := fr.frame.Index()
		for l := 0; l < ix.NLevels(); l++ {
			fm.Levels = append(fm.Levels, put([]string{ix.Names()[l]}, ix.Level(l)))
		}
		for c := 0; c < fr.frame.NCols(); c++ {
			fm.Cols = append(fm.Cols, put(fr.frame.ColIndex().Key(c), fr.frame.ColumnAt(c)))
		}
		hdr.Frames = append(hdr.Frames, fm)
	}
	hdrBytes, err := json.Marshal(hdr)
	if err != nil {
		t.Fatal(err)
	}
	out := []byte("TSEG")
	out = binary.LittleEndian.AppendUint32(out, uint32(len(hdrBytes)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(hdrBytes))
	out = binary.LittleEndian.AppendUint64(out, uint64(len(data)))
	out = append(out, hdrBytes...)
	out = append(out, data...)
	return out
}

func tWriteStore(t testing.TB, path string, versions []int, thickets []*core.Thicket) {
	t.Helper()
	out := []byte(store.FileMagic)
	for i, th := range thickets {
		out = append(out, tEncodeSegment(t, th, versions[i])...)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestV3IndependentWriterLoads: a v3 file produced by this test's own
// encoder — delta ints, RLE strings everywhere, independent zone-map
// computation — must load back bit-for-bit.
func TestV3IndependentWriterLoads(t *testing.T) {
	profiles := randomEnsemble(t, 777, 6)
	for i, p := range profiles {
		p.SetMeta("id", dataframe.Int64(int64(i*10))) // monotonic → delta-eligible level
		p.SetMeta("cluster", dataframe.Str("chama"))  // constant → RLE-eligible
	}
	th, err := core.FromProfiles(profiles, core.Options{IndexBy: "id"})
	if err != nil {
		t.Fatal(err)
	}
	if err := th.AggregateStats(nil, []string{"mean", "max"}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "v3.tks")
	tWriteStore(t, path, []int{3}, []*core.Thicket{th})
	s, err := store.Open(path)
	if err != nil {
		t.Fatalf("open independent v3 file: %v", err)
	}
	defer s.Close()
	got, err := s.Load()
	if err != nil {
		t.Fatalf("load independent v3 file: %v", err)
	}
	assertThicketsEqual(t, "independent v3", th, got)
}

// TestV2NoStatsWriterLoads: version-2 headers without min/max/nulls are
// legal (the fields were always optional) and must load.
func TestV2NoStatsWriterLoads(t *testing.T) {
	th := randomThicket(t, 778, 5)
	path := filepath.Join(t.TempDir(), "v2.tks")
	tWriteStore(t, path, []int{2}, []*core.Thicket{th})
	s, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	assertThicketsEqual(t, "v2 no-stats", th, got)
}

// TestV3WriterEmitsDeltaAndRLE parses the header of a package-written
// file and checks the kind bytes at each block offset: monotonic int
// levels must come out delta-coded and constant string columns
// run-length-coded — otherwise the v3 bench numbers measure nothing.
func TestV3WriterEmitsDeltaAndRLE(t *testing.T) {
	profiles := randomEnsemble(t, 779, 8)
	for i, p := range profiles {
		p.SetMeta("id", dataframe.Int64(int64(i)))
		p.SetMeta("cluster", dataframe.Str("quartz"))
	}
	th, err := core.FromProfiles(profiles, core.Options{IndexBy: "id"})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "emit.tks")
	if err := store.Create(path, th); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := len(store.FileMagic) + 4
	hdrLen := binary.LittleEndian.Uint32(raw[off:])
	dataStart := len(store.FileMagic) + 20 + int(hdrLen)
	var hdr tHeader
	if err := json.Unmarshal(raw[len(store.FileMagic)+20:dataStart], &hdr); err != nil {
		t.Fatal(err)
	}
	if hdr.Version != 3 {
		t.Fatalf("header version %d, want 3", hdr.Version)
	}
	kinds := map[byte]bool{}
	for _, fm := range hdr.Frames {
		for _, cm := range append(append([]tColumnMeta{}, fm.Levels...), fm.Cols...) {
			kinds[raw[dataStart+int(cm.Offset)]] = true
			if cm.Nulls == nil {
				t.Fatalf("v3 block %v missing null count", cm.Key)
			}
		}
	}
	if !kinds[5] {
		t.Fatal("no delta-coded block in a file with a monotonic int level")
	}
	if !kinds[6] {
		t.Fatal("no RLE block in a file with a constant string column")
	}
}

// TestPlanMixedVersionStores is the cross-version acceptance test: one
// store holding a v1, a v2 (no statistics), and a v3 segment. The
// compiled path must stay bit-identical to the naive path, and may only
// skip where evidence exists — v1 and the stats-free v2 segment always
// scan on numeric predicates; v1's plain string blocks always scan even
// on dictionary probes.
func TestPlanMixedVersionStores(t *testing.T) {
	mk := func(seed int64, base int) *core.Thicket {
		profiles := randomEnsemble(t, seed, 4)
		for i, p := range profiles {
			p.SetMeta("id", dataframe.Int64(int64(base+i)))
		}
		th, err := core.FromProfiles(profiles, core.Options{IndexBy: "id"})
		if err != nil {
			t.Fatal(err)
		}
		return th
	}
	th1, th2, th3 := mk(801, 0), mk(802, 1000), mk(803, 2000)
	path := filepath.Join(t.TempDir(), "mixed.tks")
	tWriteStore(t, path, []int{1, 2}, []*core.Thicket{th1, th2})
	appendLegacySegment(t, path, th3)
	s, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	naive, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}

	for _, expr := range []string{
		"id<=3", "id>=2000", "id=1500", "group=g1", "group!=g1",
		"scale<=4", "ratio>0.5", "tuned=true", "group=nosuchword",
	} {
		preds, err := plan.Compile([]string{expr})
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := plan.ExecuteStore(s, preds)
		if err != nil {
			t.Fatalf("%s: %v", expr, err)
		}
		assertThicketsEqual(t, "mixed "+expr, plan.NaiveFilter(naive, preds), got)
		switch expr {
		case "id=1500":
			// Only the v3 segment has zone maps; v1 and the stats-free
			// v2 segment must scan even though no row can match.
			if st.SegmentsPruned != 1 {
				t.Fatalf("%s: pruned %d, want 1 (v3 only)", expr, st.SegmentsPruned)
			}
		case "group=nosuchword":
			// v2's dict pages and v3's are probeable; v1's plain string
			// blocks are not, so exactly one segment still scans.
			if st.SegmentsPruned != 2 {
				t.Fatalf("%s: pruned %d, want 2 (v2+v3)", expr, st.SegmentsPruned)
			}
		case "id<=3":
			// v3 prunes on its level zone map; v1/v2 must scan.
			if st.SegmentsPruned != 1 {
				t.Fatalf("%s: pruned %d, want 1", expr, st.SegmentsPruned)
			}
		}
	}
}

// whereFuzzStore builds FuzzWhere's store: a v1 and a v2 segment from
// this file's encoder, then a v3 segment from the store's encoder,
// appended as older versions' Append wrote it. Only the v2 segment has a
// "ranks" column (schema drift), and the first profile of each segment
// has a NaN "ratio".
func whereFuzzStore(tb testing.TB) *store.Store {
	mk := func(seed int64, base int, drift bool) *core.Thicket {
		profiles := randomEnsemble(tb, seed, 4)
		for i, p := range profiles {
			p.SetMeta("id", dataframe.Int64(int64(base+i)))
			if drift {
				p.SetMeta("ranks", dataframe.Int64(int64(1<<i)))
			}
		}
		profiles[0].SetMeta("ratio", dataframe.Float64(math.NaN()))
		th, err := core.FromProfiles(profiles, core.Options{IndexBy: "id"})
		if err != nil {
			tb.Fatal(err)
		}
		return th
	}
	path := filepath.Join(tb.TempDir(), "where.tks")
	tWriteStore(tb, path, []int{1, 2}, []*core.Thicket{mk(811, 0, false), mk(812, 1000, true)})
	appendLegacySegment(tb, path, mk(813, 2000, false))
	s, err := store.Open(path)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	sn := s.Snapshot()
	defer sn.Release()
	for i, want := range []int{1, 2, 3} {
		if sn.NumSegments() != 3 || sn.Segment(i).Version() != want {
			tb.Fatalf("segment %d of %d is not v%d", i, sn.NumSegments(), want)
		}
	}
	return s
}

// FuzzWhere turns the naive-vs-plan differential into a coverage-guided
// search of the where= grammar. The input's lines form a predicate
// conjunction (no lines, no predicates), run against one mixed-version
// store with drifting schemas: ExecuteStore must reproduce NaiveFilter
// over the loaded store bit for bit, and fail exactly when Validate
// rejects the conjunction, with the same message.
func FuzzWhere(f *testing.F) {
	s := whereFuzzStore(f)
	naive, err := s.Load()
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		// TestPlanMixedVersionStores' expressions.
		"id<=3", "id>=2000", "id=1500", "group=g1", "group!=g1",
		"scale<=4", "ratio>0.5", "tuned=true", "group=nosuchword",
		// The edges of the v3 segment's zone map (ids 2000-2003).
		"id<2001", "id>2002", "id=2003",
		// NaN and empty literals, no predicates, unknown columns,
		// the drifting column, and conjunctions.
		"ratio=NaN", "ratio!=NaN", "ratio<NaN", "id>=NaN",
		"group=", "ranks!=", "",
		"nosuch=1", "id<=3\nnosuch=1",
		"ranks>=2", "ranks<4\ngroup=g1", "id>=1000\nid<2000\ntuned=false",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		var exprs []string
		if text != "" {
			exprs = strings.Split(text, "\n")
		}
		preds, err := plan.Compile(exprs)
		if err != nil {
			t.Skip()
		}
		got, _, err := plan.ExecuteStore(s, preds)
		if verr := plan.Validate(naive.Metadata, preds); verr != nil {
			if err == nil || err.Error() != verr.Error() {
				t.Fatalf("%q: ExecuteStore error %v, Validate error %v", text, err, verr)
			}
			return
		}
		if err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		assertThicketsEqual(t, fmt.Sprintf("where %q", text), plan.NaiveFilter(naive, preds), got)
	})
}
