package server_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/store"
)

// planFixture builds a two-segment store — one RZTopaz segment, one AWS
// segment — so a cluster= predicate can prune a whole segment, plus a
// server over it.
func planFixture(t *testing.T) (*httptest.Server, *server.Server, *core.Thicket) {
	return planFixtureOpts(t, server.Options{})
}

// planFixtureOpts is planFixture with caller-chosen server options
// (timeout, injected latency).
func planFixtureOpts(t *testing.T, opts server.Options) (*httptest.Server, *server.Server, *core.Thicket) {
	t.Helper()
	mk := func(c sim.MarblCluster) *core.Thicket {
		profiles, err := sim.MarblEnsemble([]sim.MarblCluster{c}, []int{1, 4}, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		th, err := core.FromProfiles(profiles, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return th
	}
	path := filepath.Join(t.TempDir(), "two.tks")
	if err := store.CreateDir(path, mk(sim.ClusterRZTopaz)); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if err := st.Append(mk(sim.ClusterAWS)); err != nil {
		t.Fatal(err)
	}
	th, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(th, st, opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv, th
}

func fetch(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestWhereFiltersEndpoints: every analytical endpoint with
// where=cluster=ip-0A2D2BE2 must answer byte-identically to the same endpoint
// on a server whose resident thicket was pre-filtered with the naive
// reference path. This exercises the store-backed plan the server runs
// (AnalyzeStore), including pruning the rztopaz segment.
func TestWhereFiltersEndpoints(t *testing.T) {
	ts, _, th := planFixture(t)
	preds, err := plan.Compile([]string{"cluster=ip-0A2D2BE2"})
	if err != nil {
		t.Fatal(err)
	}
	refSrv := memServer(t, plan.NaiveFilter(th, preds), server.Options{})
	ref := httptest.NewServer(refSrv.Handler())
	defer ref.Close()

	paths := []string{
		"/api/stats?aggs=mean,std",
		"/api/groupby?by=numhosts&aggs=mean",
		"/api/summary?by=cluster,numhosts",
		"/api/query?q=" + url.QueryEscape(". name == main / *"),
	}
	for _, p := range paths {
		full := p + "&where=cluster=ip-0A2D2BE2"
		gotStatus, got := fetch(t, ts, full)
		wantStatus, want := fetch(t, ref, p)
		if gotStatus != wantStatus || gotStatus != 200 {
			t.Fatalf("GET %s: status %d (ref %d)\n%s", full, gotStatus, wantStatus, got)
		}
		if got != want {
			t.Errorf("GET %s differs from pre-filtered reference\n--- got ---\n%s\n--- want ---\n%s", full, got, want)
		}
	}

	// /api/profiles reports both the filtered count and the store total.
	status, body := fetch(t, ts, "/api/profiles?where=cluster=ip-0A2D2BE2")
	if status != 200 {
		t.Fatalf("profiles where=: %d\n%s", status, body)
	}
	var out struct {
		Count int `json:"count"`
		Total int `json:"total"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if out.Count != th.NumProfiles()/2 || out.Total != th.NumProfiles() {
		t.Errorf("profiles where=aws: count=%d total=%d, want %d/%d",
			out.Count, out.Total, th.NumProfiles()/2, th.NumProfiles())
	}
}

// TestWhereUnknownColumn400: the sentinel-classified plan error keeps
// the historical message and 400 status on every wired endpoint.
func TestWhereUnknownColumn400(t *testing.T) {
	ts, _, _ := planFixture(t)
	paths := []string{
		"/api/profiles?where=bogus=1",
		"/api/stats?where=bogus=1",
		"/api/groupby?by=cluster&where=bogus=1",
		"/api/summary?by=cluster&where=bogus=1",
		"/api/query?q=" + url.QueryEscape(". name == main / *") + "&where=bogus=1",
	}
	for _, p := range paths {
		status, body := fetch(t, ts, p)
		if status != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400\n%s", p, status, body)
		}
		if !strings.Contains(body, `unknown metadata column \"bogus\"`) {
			t.Errorf("GET %s: body missing unknown-column message: %s", p, body)
		}
	}
}

// TestPlanMetricsExposed: a selective where= against the two-segment
// store must prune the non-matching segment, and the plan counters must
// land on /metrics labeled with the serving endpoint.
func TestPlanMetricsExposed(t *testing.T) {
	ts, _, _ := planFixture(t)
	if status, body := fetch(t, ts, "/api/profiles?where=cluster=ip-0A2D2BE2"); status != 200 {
		t.Fatalf("warm-up query failed: %d\n%s", status, body)
	}
	_, metrics := fetch(t, ts, "/metrics")
	for _, want := range []string{
		`thicket_plan_segments_pruned_total{endpoint="/api/profiles"} 1`,
		`thicket_plan_rows_materialized_total{endpoint="/api/profiles"} 4`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Blocks were both scanned (aws segment) and skipped (rztopaz).
	for _, name := range []string{
		`thicket_plan_blocks_scanned_total{endpoint="/api/profiles"} 0`,
		`thicket_plan_blocks_skipped_total{endpoint="/api/profiles"} 0`,
	} {
		if strings.Contains(metrics, name) {
			t.Errorf("/metrics: %s should be non-zero", name)
		}
	}
}
