package plan_test

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dataframe"
	"repro/internal/ingest"
	"repro/internal/parallel"
	"repro/internal/plan"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/store"
)

// checkAgainstNaive runs preds through the compiled path and holds the
// answer to NaiveFilter over naive, a load of the same layout.
func checkAgainstNaive(t *testing.T, label string, s *store.Store, naive *core.Thicket, preds []plan.Predicate) {
	t.Helper()
	got, _, err := plan.ExecuteStore(s, preds)
	label = fmt.Sprintf("%s (%s)", label, plan.Describe(preds))
	if err != nil {
		if strings.Contains(err.Error(), "unknown metadata column") &&
			plan.Validate(naive.Metadata, preds) != nil {
			return
		}
		t.Fatalf("%s: %v", label, err)
	}
	assertThicketsEqual(t, label, plan.NaiveFilter(naive, preds), got)
}

// TestExecuteStoreAcrossLayoutChanges keeps one directory store open
// while appends, compactions and reopens change its layout, and asks
// random where= questions after every change. Segments keep their
// header parts and profile ordinals, and the store keeps one union tree
// per layout, so a part or tree that outlived its layout would show up
// here as a difference from the naive load of the current layout.
func TestExecuteStoreAcrossLayoutChanges(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			prev := parallel.Set(workers)
			defer parallel.Set(prev)
			for seed := int64(0); seed < 4; seed++ {
				rng := rand.New(rand.NewSource(700*int64(workers) + seed))
				dir := filepath.Join(t.TempDir(), "store")
				if err := store.CreateDir(dir, thicketOf(t, ensemble(t, seed, 0, 3, true))); err != nil {
					t.Fatal(err)
				}
				s, err := store.Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				idBase := int64(1000)
				for step := 0; step < 10; step++ {
					op := "query"
					switch rng.Intn(5) {
					case 0, 1:
						op = "append"
						batch := ensemble(t, seed*100+int64(step), idBase, 1+rng.Intn(4), true)
						idBase += 1000
						if err := s.Append(thicketOf(t, batch)); err != nil {
							t.Fatal(err)
						}
					case 2:
						op = "compact"
						if err := ingest.CompactAll(s); err != nil {
							t.Fatal(err)
						}
					case 3:
						op = "reopen"
						s.Close()
						if s, err = store.Open(dir); err != nil {
							t.Fatal(err)
						}
					}
					naive, err := s.Load()
					if err != nil {
						t.Fatal(err)
					}
					for trial := 0; trial < 4; trial++ {
						label := fmt.Sprintf("seed %d step %d after %s (%d segments) trial %d", seed, step, op, s.NumSegments(), trial)
						checkAgainstNaive(t, label, s, naive, randomPreds(rng))
					}
				}
				s.Close()
			}
		})
	}
}

// TestExecuteStoreConcurrentWithAppends asks where= questions from
// several goroutines while another appends segments; run it with -race.
// Every answer must equal the naive answer for the layout its snapshot
// saw, which ExecStats.Rows identifies because appends only add rows.
func TestExecuteStoreConcurrentWithAppends(t *testing.T) {
	const appends, askers, asks = 6, 3, 12
	s := buildStore(t, ensemble(t, 500, 0, 3, true))
	type answer struct {
		preds []plan.Predicate
		got   *core.Thicket
		rows  int
	}
	naiveByRows := map[int]*core.Thicket{}
	record := func() {
		naive, err := s.Load()
		if err != nil {
			t.Error(err)
			return
		}
		naiveByRows[naive.NumProfiles()] = naive
	}
	record()
	answers := make([][]answer, askers)
	var appended atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < askers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(510 + g)))
			for i := 0; i < asks || !appended.Load(); i++ {
				preds := randomPreds(rng)
				got, es, err := plan.ExecuteStore(s, preds)
				if err != nil {
					if !strings.Contains(err.Error(), "unknown metadata column") {
						t.Errorf("asker %d: %s: %v", g, plan.Describe(preds), err)
					}
					continue
				}
				answers[g] = append(answers[g], answer{preds, got, es.Rows})
			}
		}(g)
	}
	for i := 0; i < appends; i++ {
		batch := ensemble(t, 520+int64(i), int64(1000*(i+1)), 1+i%3, true)
		if err := s.Append(thicketOf(t, batch)); err != nil {
			t.Fatal(err)
		}
		record()
	}
	appended.Store(true)
	wg.Wait()
	for g, as := range answers {
		for i, a := range as {
			naive, ok := naiveByRows[a.rows]
			if !ok {
				t.Fatalf("asker %d answer %d: no layout with %d rows", g, i, a.rows)
			}
			assertThicketsEqual(t, fmt.Sprintf("asker %d answer %d (%s)", g, i, plan.Describe(a.preds)),
				plan.NaiveFilter(naive, a.preds), a.got)
		}
	}
}

// TestUnknownProfileSegmentFailsEveryScan: a segment whose perf rows
// name a profile its metadata lacks fails the scan that reads it with
// the error a full load reports, and, since only a passing check is
// kept, so does every later scan, before and after questions that prune
// the segment and so never read it.
func TestUnknownProfileSegmentFailsEveryScan(t *testing.T) {
	s := buildStore(t, ensemble(t, 600, 0, 3, false))
	bad := thicketOf(t, ensemble(t, 601, 100, 3, false))
	stray := thicketOf(t, ensemble(t, 602, 900, 3, false))
	bad.PerfData = stray.PerfData // perf rows name profiles 900..902
	if err := s.Append(bad); err != nil {
		t.Fatal(err)
	}
	_, loadErr := s.Load()
	if loadErr == nil || !strings.Contains(loadErr.Error(), "references unknown profile") {
		t.Fatalf("load error = %v, want an unknown-profile error", loadErr)
	}
	scan, _ := plan.Compile([]string{"id>=100"})
	prune, _ := plan.Compile([]string{"id<100"})
	for round := 0; round < 3; round++ {
		if _, _, err := plan.ExecuteStore(s, scan); err == nil || err.Error() != loadErr.Error() {
			t.Fatalf("round %d: scan error = %v, want %v", round, err, loadErr)
		}
		got, st, err := plan.ExecuteStore(s, prune)
		if err != nil {
			t.Fatalf("round %d: pruning the bad segment: %v", round, err)
		}
		if st.SegmentsPruned != 1 || got.NumProfiles() != 3 {
			t.Fatalf("round %d: prune stats %+v, %d profiles", round, st, got.NumProfiles())
		}
	}
}

// TestSharedProfileSegmentsFailLikeLoad: a segment file added to a
// manifest by hand can repeat a profile a live segment holds, which no
// append lets in. A question whose answer would hold both copies fails
// with the error Load reports; questions that leave a copy out answer.
// On a store whose segments share no profile, the store proves so once,
// and answers still match the naive path.
func TestSharedProfileSegmentsFailLikeLoad(t *testing.T) {
	marbl := func(trials ...int) *core.Thicket {
		ps := make([]*profile.Profile, len(trials))
		for i, trial := range trials {
			p, err := sim.GenerateMarbl(sim.MarblConfig{Cluster: sim.ClusterRZTopaz, Nodes: 1, Trial: trial, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			ps[i] = p
		}
		th, err := core.FromProfiles(ps, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return th
	}
	dirA, dirB := filepath.Join(t.TempDir(), "a"), filepath.Join(t.TempDir(), "b")
	if err := store.CreateDir(dirA, marbl(0, 1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := store.CreateDir(dirB, marbl(2, 3, 4)); err != nil {
		t.Fatal(err)
	}
	// B's one segment joins A's manifest as generation 99.
	segB, err := filepath.Glob(filepath.Join(dirB, "seg-*.tks"))
	if err != nil || len(segB) != 1 {
		t.Fatalf("segment files of B: %v, %v", segB, err)
	}
	raw, err := os.ReadFile(segB[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dirA, "seg-000099.tks"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	manifestPath := filepath.Join(dirA, store.ManifestName)
	if raw, err = os.ReadFile(manifestPath); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	m["segments"] = append(m["segments"].([]any), map[string]any{"file": "seg-000099.tks", "level": 1, "gen": 99})
	m["next_gen"] = 100
	if raw, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifestPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := store.Open(dirA)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, loadErr := s.Load()
	if want := "store: " + dirA + ": core: concatenated thickets share profile-index values"; loadErr == nil || loadErr.Error() != want {
		t.Fatalf("load error = %v, want %s", loadErr, want)
	}
	for round := 0; round < 2; round++ {
		scan, _ := plan.Compile([]string{"trial>=0"})
		if _, _, err := plan.ExecuteStore(s, scan); err == nil || err.Error() != loadErr.Error() {
			t.Fatalf("round %d: scan error = %v, want %v", round, err, loadErr)
		}
		for _, tc := range []struct {
			expr     string
			profiles int
		}{{"trial<2", 2}, {"trial!=2", 4}} {
			preds, _ := plan.Compile([]string{tc.expr})
			got, _, err := plan.ExecuteStore(s, preds)
			if err != nil {
				t.Fatalf("round %d: %s: %v", round, tc.expr, err)
			}
			if got.NumProfiles() != tc.profiles {
				t.Fatalf("round %d: %s kept %d profiles, want %d", round, tc.expr, got.NumProfiles(), tc.profiles)
			}
		}
	}

	valid := buildStore(t, ensemble(t, 620, 0, 3, true), ensemble(t, 621, 100, 4, true), ensemble(t, 622, 200, 2, true))
	naive, err := valid.Load()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(623))
	for trial := 0; trial < 20; trial++ {
		checkAgainstNaive(t, fmt.Sprintf("valid store trial %d", trial), valid, naive, randomPreds(rng))
	}
}

// TestInfColumnMatchesNaive: a float column holding ±Inf stores with an
// open zone map, so the planner scans rather than prunes on it, and
// answers like the naive path on both sides of the infinities.
func TestInfColumnMatchesNaive(t *testing.T) {
	withInf := func(seed, idBase int64, inf float64) []*profile.Profile {
		ps := ensemble(t, seed, idBase, 3, false)
		ps[1].SetMeta("ratio", dataframe.Float64(inf))
		return ps
	}
	s := buildStore(t, withInf(610, 0, math.Inf(1)), withInf(611, 100, math.Inf(-1)), ensemble(t, 612, 200, 3, false))
	naive, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	for _, expr := range []string{"ratio>1e308", "ratio<-1e308", "ratio=+Inf", "ratio=-Inf", "ratio!=Inf", "ratio>=0", "ratio<5"} {
		preds, err := plan.Compile([]string{expr})
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstNaive(t, expr, s, naive, preds)
	}
	preds, _ := plan.Compile([]string{"ratio>1e308"})
	got, _, err := plan.ExecuteStore(s, preds)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumProfiles() != 1 {
		t.Fatalf("ratio>1e308 kept %d profiles, want the +Inf one", got.NumProfiles())
	}
}
