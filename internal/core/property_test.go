package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dataframe"
	"repro/internal/profile"
)

// randomEnsemble builds a randomized but valid profile ensemble: random
// tree shapes drawn from a shared region vocabulary (so trees overlap
// partially), random metric subsets, and random metadata.
func randomEnsemble(seed int64, nProfiles int) []*profile.Profile {
	rng := rand.New(rand.NewSource(seed))
	vocab := []string{"main", "solve", "io", "mult", "add", "halo", "reduce"}
	metricNames := []string{"time", "bytes", "flops"}
	out := make([]*profile.Profile, nProfiles)
	for i := range out {
		p := profile.New()
		p.SetMeta("id", dataframe.Int64(int64(i)))
		p.SetMeta("group", dataframe.Str(fmt.Sprintf("g%d", rng.Intn(3))))
		p.SetMeta("scale", dataframe.Int64(int64(1<<rng.Intn(4))))
		nPaths := 1 + rng.Intn(6)
		for j := 0; j < nPaths; j++ {
			depth := 1 + rng.Intn(3)
			path := []string{"main"}
			for d := 1; d < depth; d++ {
				path = append(path, vocab[1+rng.Intn(len(vocab)-1)])
			}
			metrics := map[string]dataframe.Value{}
			for _, m := range metricNames {
				if rng.Intn(4) > 0 {
					metrics[m] = dataframe.Float64(rng.Float64() * 100)
				}
			}
			if err := p.AddSample(path, metrics); err != nil {
				panic(err)
			}
		}
		out[i] = p
	}
	return out
}

// TestRandomEnsembleInvariants checks the Figure 3 invariants over
// randomized ensembles: row counts, validation, filter/group laws, and
// serialization round trips.
func TestRandomEnsembleInvariants(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%6 + 2
		profiles := randomEnsemble(seed, n)
		th, err := FromProfiles(profiles, Options{IndexBy: "id"})
		if err != nil {
			t.Logf("FromProfiles: %v", err)
			return false
		}
		if err := th.Validate(); err != nil {
			t.Logf("Validate: %v", err)
			return false
		}
		// Perf rows = Σ per-profile tree sizes.
		wantRows := 0
		for _, p := range profiles {
			wantRows += p.Tree().Len()
		}
		if th.PerfData.NRows() != wantRows {
			t.Logf("rows = %d, want %d", th.PerfData.NRows(), wantRows)
			return false
		}
		// Union tree covers every profile's tree.
		for _, p := range profiles {
			for _, node := range p.Tree().Nodes() {
				if !th.Tree.Contains(node.Key()) {
					t.Logf("union tree missing %q", node.PathString())
					return false
				}
			}
		}
		// Filter + complement partition the profiles and the perf rows.
		even := th.FilterMetadata(func(m MetaRow) bool { return m.Int("id")%2 == 0 })
		odd := th.FilterMetadata(func(m MetaRow) bool { return m.Int("id")%2 != 0 })
		if even.NumProfiles()+odd.NumProfiles() != th.NumProfiles() {
			t.Log("filter complement does not partition profiles")
			return false
		}
		if even.PerfData.NRows()+odd.PerfData.NRows() != th.PerfData.NRows() {
			t.Log("filter complement does not partition perf rows")
			return false
		}
		if even.Validate() != nil || odd.Validate() != nil {
			t.Log("filtered thickets invalid")
			return false
		}
		// GroupBy covers all profiles disjointly.
		groups, err := th.GroupBy("group")
		if err != nil {
			t.Logf("GroupBy: %v", err)
			return false
		}
		total := 0
		for _, g := range groups {
			total += g.Thicket.NumProfiles()
			if g.Thicket.Validate() != nil {
				t.Log("group thicket invalid")
				return false
			}
		}
		if total != th.NumProfiles() {
			t.Log("groups do not partition")
			return false
		}
		// Serialization round trip preserves everything.
		data, err := th.MarshalBytes()
		if err != nil {
			t.Logf("marshal: %v", err)
			return false
		}
		back, err := ThicketFromBytes(data)
		if err != nil {
			t.Logf("unmarshal: %v", err)
			return false
		}
		if !back.PerfData.Equal(th.PerfData) || !back.Metadata.Equal(th.Metadata) || !back.Tree.Equal(th.Tree) {
			t.Log("round trip mismatch")
			return false
		}
		// Stats computation then FilterStats keeps consistency.
		if err := th.AggregateStats(nil, []string{"mean"}); err != nil {
			t.Logf("aggregate: %v", err)
			return false
		}
		some := th.FilterStats(func(s StatsRow) bool { return s.Float("time_mean") > 50 })
		return some.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestRandomEnsembleQueryConsistency checks that querying never invents
// nodes and that perf rows stay within the queried tree.
func TestRandomEnsembleQueryConsistency(t *testing.T) {
	f := func(seed int64) bool {
		profiles := randomEnsemble(seed, 4)
		th, err := FromProfiles(profiles, Options{IndexBy: "id"})
		if err != nil {
			return false
		}
		out, err := th.QueryString(". name == main / *")
		if err != nil {
			t.Logf("query: %v", err)
			return false
		}
		// Everything under main matches, so the full tree survives.
		if out.Tree.Len() != th.Tree.Len() {
			t.Logf("full-match query lost nodes: %d vs %d", out.Tree.Len(), th.Tree.Len())
			return false
		}
		// A query matching nothing keeps metadata but no perf rows.
		none, err := th.QueryString(". name == never-a-region")
		if err != nil {
			return false
		}
		return none.PerfData.NRows() == 0 && none.NumProfiles() == th.NumProfiles()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestCheckProfileMatchesFromProfiles: over random single profiles whose
// metrics mix kinds and nulls, some with a '/' in a region name or no
// index value, CheckProfile passes exactly the profiles FromProfiles
// composes alone, and refuses the rest with FromProfiles' error text.
func TestCheckProfileMatchesFromProfiles(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	vocab := []string{"main", "solve", "io", "mult", "halo", "a/b"}
	cells := []dataframe.Value{
		dataframe.Int64(1), dataframe.Int64(2), dataframe.Float64(1), dataframe.Float64(1.5),
		dataframe.Str("x"), dataframe.BoolVal(true),
		dataframe.Null(dataframe.Float), dataframe.Null(dataframe.Int), dataframe.Null(dataframe.String), dataframe.NaN(),
	}
	optsList := []Options{{}, {IndexBy: "id"}, {IntersectTrees: true}}
	var oks, kindErrs, otherErrs int
	for trial := 0; trial < 2000; trial++ {
		p := profile.New()
		if rng.Intn(10) > 0 {
			p.SetMeta("id", dataframe.Int64(int64(trial)))
		}
		// Mostly one kind per metric, so that some profiles compose.
		kinds := map[string][]dataframe.Value{}
		for _, m := range []string{"time", "bytes", "flops"} {
			if rng.Intn(3) == 0 {
				kinds[m] = cells
			} else {
				kinds[m] = []dataframe.Value{cells[rng.Intn(6)], cells[6+rng.Intn(4)]}
			}
		}
		for j, nPaths := 0, 1+rng.Intn(6); j < nPaths; j++ {
			path := []string{"main"}
			for d := rng.Intn(3); d > 0; d-- {
				name := vocab[1+rng.Intn(len(vocab)-2)]
				if rng.Intn(40) == 0 {
					name = vocab[len(vocab)-1]
				}
				path = append(path, name)
			}
			metrics := map[string]dataframe.Value{}
			for m, pool := range kinds {
				if rng.Intn(3) > 0 {
					metrics[m] = pool[rng.Intn(len(pool))]
				}
			}
			if err := p.AddSample(path, metrics); err != nil {
				t.Fatal(err)
			}
		}
		for _, opts := range optsList {
			label := fmt.Sprintf("trial %d %+v", trial, opts)
			_, want := FromProfiles([]*profile.Profile{p}, opts)
			got := CheckProfile(p, opts)
			assertErrorsEqual(t, label, want, got)
			switch {
			case want == nil:
				oks++
			case strings.Contains(want.Error(), "cannot append"):
				kindErrs++
			default:
				otherErrs++
			}
		}
	}
	if oks == 0 || kindErrs == 0 || otherErrs == 0 {
		t.Fatalf("%d composed, %d kind conflicts, %d other refusals: the inputs must exercise each", oks, kindErrs, otherErrs)
	}
}
