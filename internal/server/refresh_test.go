package server_test

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/dataframe"
	"repro/internal/ingest"
	"repro/internal/parallel"
	"repro/internal/profile"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// The Refresh differential harness: a long-lived server follows a
// growing, compacting store through store.Refresh, and after every step
// each endpoint must answer byte for byte like a server freshly built
// over st.Load().

// refreshURLs covers every resident-thicket endpoint, with and without
// where= (which routes through the store-side plan instead).
var refreshURLs = []string{
	"/api/info",
	"/api/profiles",
	"/api/profiles?where=cluster=quartz",
	"/api/stats?aggs=mean,std,max",
	"/api/stats?aggs=mean&where=nodes>=2",
	"/api/groupby?by=cluster&aggs=mean,min",
	"/api/groupby?by=cluster,nodes&aggs=mean&where=cluster!=tioga",
	"/api/summary?by=cluster",
	"/api/summary?by=nodes,cluster&where=nodes<4",
	"/api/query?q=" + url.QueryEscape(". name == main / *"),
	"/api/query?q=" + url.QueryEscape(". name == solve / *") + "&where=cluster=lassen",
	"/api/tree",
	"/api/tree?metric=time",
}

// driftPaths is the call-path vocabulary; each profile samples a random
// subset in random order, so the union tree's child order depends on
// arrival order.
var driftPaths = [][]string{
	{"main", "solve"},
	{"main", "solve", "smooth"},
	{"main", "solve", "restrict"},
	{"main", "solve", "prolong"},
	{"main", "io"},
	{"main", "io", "read"},
	{"main", "io", "write"},
	{"main", "setup"},
}

// driftProfile builds one profile whose tree, metrics and metadata drift
// with id: optional call paths, an optional metric, and metadata columns
// that only some (or only later) profiles carry.
func driftProfile(rng *rand.Rand, id int) *profile.Profile {
	p := profile.New()
	p.SetMeta("run", dataframe.Int64(int64(id)))
	p.SetMeta("cluster", dataframe.Str([]string{"quartz", "lassen", "tioga"}[rng.Intn(3)]))
	p.SetMeta("nodes", dataframe.Int64(int64(1)<<rng.Intn(4)))
	if rng.Intn(3) == 0 {
		p.SetMeta("compiler", dataframe.Str([]string{"gcc", "clang"}[rng.Intn(2)]))
	}
	if id >= 8 && rng.Intn(2) == 0 {
		p.SetMeta("late", dataframe.Float64(rng.Float64()))
	}
	sample := func(path []string) {
		m := map[string]dataframe.Value{"time": dataframe.Float64(1 + 10*rng.Float64())}
		if rng.Intn(2) == 0 {
			m["bytes"] = dataframe.Int64(rng.Int63n(1 << 20))
		}
		if err := p.AddSample(path, m); err != nil {
			panic(err)
		}
	}
	sample([]string{"main"})
	for _, i := range rng.Perm(len(driftPaths)) {
		if rng.Intn(2) == 0 {
			sample(driftPaths[i])
		}
	}
	return p
}

// refreshHarness drives one store and one long-lived server.
type refreshHarness struct {
	t      *testing.T
	rng    *rand.Rand
	st     *store.Store
	long   http.Handler
	reg    *telemetry.Registry
	nextID int
}

func newRefreshHarness(t *testing.T, seed int64, dir bool) *refreshHarness {
	t.Helper()
	h := &refreshHarness{t: t, rng: rand.New(rand.NewSource(seed)), reg: telemetry.NewRegistry()}
	base := h.thicket(1 + h.rng.Intn(4))
	path := filepath.Join(t.TempDir(), "store")
	var err error
	if dir {
		err = store.CreateDir(path, base)
	} else {
		err = store.Create(path, base)
	}
	if err != nil {
		t.Fatal(err)
	}
	if h.st, err = store.Open(path); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.st.Close() })
	th, err := h.st.Load()
	if err != nil {
		t.Fatal(err)
	}
	h.long = server.New(th, h.st, server.Options{Registry: h.reg}).Handler()
	return h
}

// thicket composes n fresh drift profiles.
func (h *refreshHarness) thicket(n int) *core.Thicket {
	h.t.Helper()
	ps := make([]*profile.Profile, n)
	for i := range ps {
		ps[i] = driftProfile(h.rng, h.nextID)
		h.nextID++
	}
	th, err := core.FromProfiles(ps, core.Options{})
	if err != nil {
		h.t.Fatal(err)
	}
	return th
}

func (h *refreshHarness) appendL0() {
	h.t.Helper()
	if err := h.st.AppendSegment(h.thicket(1+h.rng.Intn(3)), 0); err != nil {
		h.t.Fatal(err)
	}
}

// compactRun merges a random contiguous run of at least two segments.
func (h *refreshHarness) compactRun() {
	h.t.Helper()
	segs := h.st.Segments()
	if len(segs) < 2 {
		return
	}
	n := 2 + h.rng.Intn(len(segs)-1)
	lo := h.rng.Intn(len(segs) - n + 1)
	gens := make([]int64, n)
	for i := range gens {
		gens[i] = segs[lo+i].Gen
	}
	if err := ingest.CompactSegments(h.st, gens, 1+h.rng.Intn(3)); err != nil {
		h.t.Fatal(err)
	}
}

func serveBody(h http.Handler, path string) (int, string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Code, rec.Body.String()
}

// check compares every endpoint of the long-lived server against a
// server freshly built over st.Load(): same status, same bytes (an
// error such as a where= that leaves no groups must match too). The
// long-lived server answers first so its refresh, which reads blocks,
// lands before either /api/info snapshot of the column-cache counters.
func (h *refreshHarness) check(step string) {
	h.t.Helper()
	th, err := h.st.Load()
	if err != nil {
		h.t.Fatal(err)
	}
	fresh := server.New(th, h.st, server.Options{}).Handler()
	for _, u := range refreshURLs {
		ls, lb := serveBody(h.long, u)
		fs, fb := serveBody(fresh, u)
		if ls != fs || lb != fb {
			h.t.Fatalf("%s: GET %s differs between the long-lived and a fresh server\n--- long-lived (%d) ---\n%s\n--- fresh (%d) ---\n%s", step, u, ls, lb, fs, fb)
		}
	}
}

// fullRefreshes reports how many resident swaps fell back to a full
// load; the harness only ever grows the store the server was built
// over, so every swap must be a delta.
func (h *refreshHarness) fullRefreshes() int64 {
	n, _ := h.reg.Histogram("thicket_reload_seconds", "", "mode", store.RefreshFull).Snapshot()
	return int64(n)
}

func TestRefreshMatchesFreshLoad(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("dir/workers=%d/seed=%d", workers, seed), func(t *testing.T) {
				defer parallel.Set(parallel.Set(workers))
				h := newRefreshHarness(t, seed, true)
				h.check("initial")
				// An L0 segment compacted away before the server's next
				// read: Refresh must pick the unseen tail rows out of the
				// merged segment.
				h.appendL0()
				h.appendL0()
				h.check("two appends")
				h.appendL0()
				segs := h.st.Segments()
				if err := ingest.CompactSegments(h.st, []int64{segs[len(segs)-2].Gen, segs[len(segs)-1].Gen}, 1); err != nil {
					t.Fatal(err)
				}
				h.check("append then compact")
				for step := 0; step < 10; step++ {
					// One to three mutations between reads.
					for m := 1 + h.rng.Intn(3); m > 0; m-- {
						switch r := h.rng.Intn(10); {
						case r < 6:
							h.appendL0()
						case r < 9:
							h.compactRun()
						default:
							if err := ingest.CompactAll(h.st); err != nil {
								t.Fatal(err)
							}
						}
					}
					h.check(fmt.Sprintf("step %d", step))
				}
				if n := h.fullRefreshes(); n != 0 {
					t.Errorf("%d refreshes fell back to a full load", n)
				}
			})
		}
		t.Run(fmt.Sprintf("file/workers=%d", workers), func(t *testing.T) {
			defer parallel.Set(parallel.Set(workers))
			h := newRefreshHarness(t, 7, false)
			for step := 0; step < 6; step++ {
				for m := 1 + h.rng.Intn(2); m > 0; m-- {
					h.appendL0()
				}
				h.check(fmt.Sprintf("step %d", step))
			}
			if n := h.fullRefreshes(); n != 0 {
				t.Errorf("%d refreshes fell back to a full load", n)
			}
		})
	}
}
