package server_test

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataframe"
	"repro/internal/profile"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/store"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// buildThicket composes the fixed-seed MARBL ensemble used across the
// CLI golden tests, so endpoint responses are reproducible.
func buildThicket(t testing.TB) *core.Thicket {
	t.Helper()
	profiles, err := sim.MarblEnsemble([]sim.MarblCluster{sim.ClusterRZTopaz, sim.ClusterAWS}, []int{1, 4}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	th, err := core.FromProfiles(profiles, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return th
}

// memServer builds a server over th held as a one-segment in-memory
// store, the way a thicket that did not come from a store is served.
func memServer(t testing.TB, th *core.Thicket, opts server.Options) *server.Server {
	t.Helper()
	st, err := store.FromThicket(th)
	if err != nil {
		t.Fatal(err)
	}
	return server.New(th, st, opts)
}

// get fetches one path from a fresh server instance (fresh instance →
// deterministic request counters in /healthz).
func get(t *testing.T, path string) (int, string) {
	t.Helper()
	srv := memServer(t, buildThicket(t), server.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// healthzVolatile lists the /healthz fields that depend on the build
// environment rather than server behaviour: uptime, the toolchain
// version, and the VCS stamps debug.ReadBuildInfo reports (absent in
// test binaries, present in released ones).
var healthzVolatile = []struct {
	re   *regexp.Regexp
	repl string
}{
	{regexp.MustCompile(`"uptime_seconds": \d+`), `"uptime_seconds": 0`},
	{regexp.MustCompile(`"go_version": "[^"]*"`), `"go_version": "go"`},
	{regexp.MustCompile(`"version": "[^"]*"`), `"version": ""`},
	{regexp.MustCompile(`"revision": "[^"]*"`), `"revision": ""`},
	{regexp.MustCompile(`"dirty": (true|false)`), `"dirty": false`},
}

// normalizeHealthz pins the environment-dependent fields so the golden
// stays byte-stable across machines and toolchains while still pinning
// the response's shape.
func normalizeHealthz(body string) string {
	for _, v := range healthzVolatile {
		body = v.re.ReplaceAllString(body, v.repl)
	}
	return body
}

// TestEndpointsGolden pins the exact JSON of every endpoint against
// checked-in golden files (rerun with -update to acknowledge changes).
func TestEndpointsGolden(t *testing.T) {
	cases := []struct {
		name       string
		path       string
		wantStatus int
	}{
		{"healthz", "/healthz", 200},
		{"info", "/api/info", 200},
		{"profiles", "/api/profiles", 200},
		{"profiles_where_eq", "/api/profiles?where=cluster=rztopaz", 200},
		{"profiles_where_cmp", "/api/profiles?where=" + url.QueryEscape("numhosts>1"), 200},
		{"profiles_where_multi", "/api/profiles?where=cluster=rztopaz&where=" + url.QueryEscape("numhosts<=1"), 200},
		{"stats", "/api/stats?metrics=" + url.QueryEscape("Avg time/rank") + "&aggs=mean,std", 200},
		{"groupby", "/api/groupby?by=cluster&metrics=" + url.QueryEscape("Avg time/rank") + "&aggs=mean", 200},
		{"summary", "/api/summary?by=cluster,numhosts", 200},
		{"query", "/api/query?q=" + url.QueryEscape(". name == main / . name == timeStepLoop / *"), 200},
		{"tree", "/api/tree?metric=" + url.QueryEscape("Avg time/rank"), 200},
		{"tree_bare", "/api/tree", 200},
		{"err_bad_predicate", "/api/profiles?where=nonsense", 400},
		{"err_unknown_column", "/api/profiles?where=bogus=1", 400},
		{"err_unknown_metric", "/api/tree?metric=bogus", 400},
		{"err_missing_by", "/api/groupby", 400},
		{"err_bad_query", "/api/query?q=" + url.QueryEscape("bogus ?? query"), 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := get(t, tc.path)
			if status != tc.wantStatus {
				t.Fatalf("GET %s: status %d, want %d\n%s", tc.path, status, tc.wantStatus, body)
			}
			if tc.name == "healthz" {
				body = normalizeHealthz(body)
			}
			golden := filepath.Join("testdata", "golden", tc.name+".json")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run `go test ./internal/server -run TestEndpointsGolden -update`): %v", err)
			}
			if body != string(want) {
				t.Errorf("GET %s differs from %s\n--- got ---\n%s\n--- want ---\n%s",
					tc.path, golden, body, want)
			}
		})
	}
}

// TestInfoIncludesStore checks that a store-backed server surfaces
// storage-level detail (excluded from the golden set: paths and cache
// stats are environment-dependent).
func TestInfoIncludesStore(t *testing.T) {
	th := buildThicket(t)
	path := filepath.Join(t.TempDir(), "marbl.tks")
	if err := store.Create(path, th); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := server.New(th, st, server.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/api/info")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Store *store.Info `json:"store"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Store == nil {
		t.Fatal("store-backed /api/info missing store section")
	}
	if out.Store.Profiles != th.NumProfiles() || out.Store.Segments != 1 {
		t.Errorf("store info = %+v", out.Store)
	}
}

// TestConcurrentRequests hammers every endpoint from many goroutines —
// the race detector validates that warmed indexes, the stats copy, and
// the counters keep concurrent reads safe.
func TestConcurrentRequests(t *testing.T) {
	srv := memServer(t, buildThicket(t), server.Options{MaxConcurrent: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	paths := []string{
		"/healthz",
		"/api/info",
		"/api/profiles?where=cluster=rztopaz",
		"/api/stats?aggs=mean",
		"/api/groupby?by=cluster&aggs=mean",
		"/api/summary?by=cluster",
		"/api/query?q=" + url.QueryEscape(". name == main / *"),
		"/api/tree?metric=" + url.QueryEscape("Avg time/rank"),
	}
	const rounds = 4
	var wg sync.WaitGroup
	errs := make(chan error, rounds*len(paths))
	for r := 0; r < rounds; r++ {
		for _, p := range paths {
			wg.Add(1)
			go func(p string) {
				defer wg.Done()
				resp, err := http.Get(ts.URL + p)
				if err != nil {
					errs <- err
					return
				}
				defer resp.Body.Close()
				io.Copy(io.Discard, resp.Body)
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("GET %s: status %d", p, resp.StatusCode)
				}
			}(p)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := srv.Requests(); got != rounds*int64(len(paths)) {
		t.Errorf("request counter = %d, want %d", got, rounds*len(paths))
	}
}

// TestStatsIsolation checks that /api/stats aggregates on a copy: the
// server's resident thicket must keep its original (empty) stats table.
func TestStatsIsolation(t *testing.T) {
	th := buildThicket(t)
	before := th.Stats.NCols()
	srv := memServer(t, th, server.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/api/stats?aggs=mean")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	if th.Stats.NCols() != before {
		t.Errorf("resident thicket's stats table grew from %d to %d columns", before, th.Stats.NCols())
	}
}

// TestGracefulShutdown checks Serve drains and returns nil once its
// context is cancelled.
func TestGracefulShutdown(t *testing.T) {
	srv := memServer(t, buildThicket(t), server.Options{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, "127.0.0.1:0") }()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v after cancellation", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not shut down within 5s")
	}
}

// TestInfValuesAnswer500: a cell no JSON can carry (±Inf, storable in a
// float column) fails its response with a 500 naming the value, whether
// the response is cached or not, never with a 200 and an empty body.
func TestInfValuesAnswer500(t *testing.T) {
	var ps []*profile.Profile
	for i := 0; i < 3; i++ {
		p := profile.New()
		p.SetMeta("id", dataframe.Int64(int64(i)))
		p.SetMeta("x", dataframe.Float64(math.Inf(1)))
		if err := p.AddSample([]string{"main"}, map[string]dataframe.Value{"time": dataframe.Float64(math.Inf(1))}); err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	th, err := core.FromProfiles(ps, core.Options{IndexBy: "id"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(memServer(t, th, server.Options{}).Handler())
	defer ts.Close()
	const want = "{\n  \"error\": \"json: unsupported value: +Inf\"\n}\n"
	for _, path := range []string{"/api/profiles", "/api/profiles?where=id>=1", "/api/stats?metrics=time&aggs=mean"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusInternalServerError || string(body) != want {
			t.Errorf("GET %s: %d %q, want 500 %q", path, resp.StatusCode, body, want)
		}
	}
	// The query log records the status the client saw.
	records, _ := querylog(t, ts)
	if len(records) != 3 {
		t.Fatalf("querylog holds %d records, want 3", len(records))
	}
	for _, rec := range records {
		if rec.Status != http.StatusInternalServerError {
			t.Errorf("querylog %s %q: status %d, want 500", rec.Endpoint, rec.Where, rec.Status)
		}
	}
}
