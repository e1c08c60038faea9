package server_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/profile"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/store"
)

func postBody(t *testing.T, ts *httptest.Server, path string, body []byte) (int, http.Header, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, string(b)
}

// ingestFixture builds a directory store seeded with RZTopaz profiles,
// a server over it, and a live ingester wired in as the sink.
func ingestFixture(t *testing.T, iopts ingest.Options) (*httptest.Server, *server.Server, *store.Store, *ingest.Ingester) {
	t.Helper()
	profiles, err := sim.MarblEnsemble([]sim.MarblCluster{sim.ClusterRZTopaz}, []int{1, 4}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	th, err := core.FromProfiles(profiles, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "store")
	if err := store.CreateDir(dir, th); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	loaded, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	ing, err := ingest.New(st, iopts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ing.Close() })
	srv := server.New(loaded, st, server.Options{Ingest: ing})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv, st, ing
}

func marblProfileBytes(t *testing.T, trial int) []byte {
	t.Helper()
	p, err := sim.GenerateMarbl(sim.MarblConfig{
		Cluster: sim.ClusterRZTopaz, Nodes: 2, Trial: 500 + trial, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.MarshalBytes()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func infoProfiles(t *testing.T, ts *httptest.Server) int {
	t.Helper()
	_, body := getBody(t, ts, "/api/info")
	var info struct {
		Profiles int `json:"profiles"`
	}
	if err := json.Unmarshal([]byte(body), &info); err != nil {
		t.Fatal(err)
	}
	return info.Profiles
}

// TestIngestEndpoint drives the full path: POST /ingest → WAL → L0 flush
// → server reload, ending with the new profile visible to queries.
func TestIngestEndpoint(t *testing.T) {
	ts, _, _, _ := ingestFixture(t, ingest.Options{
		FlushProfiles: 1, FlushInterval: 10 * time.Millisecond, CompactRun: -1,
	})
	before := infoProfiles(t, ts)

	status, _, body := postBody(t, ts, "/ingest", marblProfileBytes(t, 0))
	if status != http.StatusOK {
		t.Fatalf("POST /ingest = %d: %s", status, body)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := infoProfiles(t, ts); got == before+1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ingested profile never became visible (profiles still %d)", infoProfiles(t, ts))
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Client errors.
	if status, _, _ := postBody(t, ts, "/ingest", []byte("not a profile")); status != http.StatusBadRequest {
		t.Errorf("bad payload: status %d, want 400", status)
	}
	if status, _, _ := postBody(t, ts, "/ingest", nil); status != http.StatusBadRequest {
		t.Errorf("empty body: status %d, want 400", status)
	}
	resp, err := http.Get(ts.URL + "/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /ingest: status %d, want 405", resp.StatusCode)
	}
}

// fakeSink scripts sink outcomes for status-mapping tests.
type fakeSink struct{ err error }

func (f *fakeSink) SubmitBytes([]byte) error { return f.err }

func TestIngestStatusMapping(t *testing.T) {
	sink := &fakeSink{}
	srv := server.New(buildThicket(t), nil, server.Options{Ingest: sink})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		err  error
		want int
	}{
		{nil, http.StatusOK},
		{ingest.ErrBacklogged, http.StatusTooManyRequests},
		{fmt.Errorf("%w: junk", ingest.ErrBadPayload), http.StatusBadRequest},
		{ingest.ErrClosed, http.StatusServiceUnavailable},
		{errors.New("disk on fire"), http.StatusInternalServerError},
	}
	for _, tc := range cases {
		sink.err = tc.err
		status, hdr, _ := postBody(t, ts, "/ingest", []byte("x"))
		if status != tc.want {
			t.Errorf("err %v: status %d, want %d", tc.err, status, tc.want)
		}
		if tc.want == http.StatusTooManyRequests && hdr.Get("Retry-After") == "" {
			t.Error("429 response missing Retry-After header")
		}
	}
}

// TestIngestTraceparentEcho: every /ingest disposition — ack, shed
// 429, closed 503 — must carry a traceparent response header, and a
// request-supplied traceparent's trace ID must be echoed so the client
// can chase the shed request through the server's telemetry. The trace
// middleware sits outside the concurrency gate and the timeout handler
// precisely so these error paths stamp the header too.
func TestIngestTraceparentEcho(t *testing.T) {
	sink := &fakeSink{}
	srv := server.New(buildThicket(t), nil, server.Options{Ingest: sink})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const parent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	post := func(withParent bool) (int, http.Header) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/ingest", bytes.NewReader([]byte("x")))
		if err != nil {
			t.Fatal(err)
		}
		if withParent {
			req.Header.Set("traceparent", parent)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, resp.Header
	}

	cases := []struct {
		err  error
		want int
	}{
		{nil, http.StatusOK},
		{ingest.ErrBacklogged, http.StatusTooManyRequests},
		{ingest.ErrClosed, http.StatusServiceUnavailable},
	}
	for _, tc := range cases {
		sink.err = tc.err
		status, hdr := post(false)
		if status != tc.want {
			t.Fatalf("err %v: status %d, want %d", tc.err, status, tc.want)
		}
		if hdr.Get("traceparent") == "" {
			t.Errorf("%d response missing traceparent header", tc.want)
		}
		// The response span must be a child of the supplied parent:
		// same trace ID, different span ID.
		status, hdr = post(true)
		if status != tc.want {
			t.Fatalf("err %v (with parent): status %d, want %d", tc.err, status, tc.want)
		}
		tp := hdr.Get("traceparent")
		if !strings.HasPrefix(tp, "00-4bf92f3577b34da6a3ce929d0e0e4736-") {
			t.Errorf("%d response traceparent %q does not echo the request's trace ID", tc.want, tp)
		}
		if strings.Contains(tp, "00f067aa0ba902b7") {
			t.Errorf("%d response reused the parent's span ID: %q", tc.want, tp)
		}
	}
}

func TestIngestNotEnabled(t *testing.T) {
	srv := server.New(buildThicket(t), nil, server.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if status, _, _ := postBody(t, ts, "/ingest", []byte("x")); status != http.StatusNotImplemented {
		t.Errorf("status %d, want 501", status)
	}
}

func appendMarbl(t *testing.T, st *store.Store, trial int) {
	t.Helper()
	p, err := sim.GenerateMarbl(sim.MarblConfig{
		Cluster: sim.ClusterRZTopaz, Nodes: 4, Trial: trial, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendProfiles([]*profile.Profile{p}); err != nil {
		t.Fatal(err)
	}
}

// TestCacheSurvivesCompaction: a compaction rewrites the segment layout
// without changing content or tree. The layout generation moves, the
// server's Refresh hands the resident thicket back unchanged, and every
// cached response must stay warm — the whole point of incremental
// invalidation over the old wholesale flush.
func TestCacheSurvivesCompaction(t *testing.T) {
	ts, srv, st, _ := ingestFixture(t, ingest.Options{CompactRun: -1})
	// Split the store into several segments so there is something to
	// compact.
	appendMarbl(t, st, 900)
	appendMarbl(t, st, 901)

	statsURL := "/api/stats?aggs=mean"
	queryURL := "/api/query?q=" + url.QueryEscape(". name == main / *")
	getBody(t, ts, statsURL) // miss
	getBody(t, ts, queryURL) // miss
	getBody(t, ts, statsURL) // hit
	getBody(t, ts, queryURL) // hit
	hits0, misses0 := srv.CacheStats()
	if hits0 != 2 || misses0 != 2 {
		t.Fatalf("warmup: hits=%d misses=%d, want 2/2", hits0, misses0)
	}

	gen0 := st.Generation()
	reloads0 := getJSON(t, ts.URL+"/healthz")["reloads"]
	if err := ingest.CompactAll(st); err != nil {
		t.Fatal(err)
	}
	if st.Generation() == gen0 {
		t.Fatal("compaction did not move the layout generation")
	}
	body1 := mustGet(t, ts, statsURL)
	body2 := mustGet(t, ts, queryURL)
	hits1, misses1 := srv.CacheStats()
	if misses1 != misses0 {
		t.Errorf("compaction evicted cache entries: misses %d -> %d", misses0, misses1)
	}
	if hits1 != hits0+2 {
		t.Errorf("hits after compaction = %d, want %d", hits1, hits0+2)
	}
	// No swap was counted, yet the server now stands at the new layout.
	hz := getJSON(t, ts.URL+"/healthz")
	if hz["reloads"] != reloads0 {
		t.Errorf("compaction counted a reload: %v -> %v", reloads0, hz["reloads"])
	}
	if gen := hz["cache"].(map[string]any)["generation"]; gen != float64(st.Generation()) {
		t.Errorf("resident generation %v, store at %d", gen, st.Generation())
	}

	// The surviving entries are still correct: a forced recompute on a
	// fresh server over the compacted store yields identical bytes.
	fresh, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	srv2 := server.New(fresh, st, server.Options{})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	if got := mustGet(t, ts2, statsURL); got != body1 {
		t.Error("cached stats response differs from recomputed response")
	}
	if got := mustGet(t, ts2, queryURL); got != body2 {
		t.Error("cached query response differs from recomputed response")
	}
}

// TestAppendKeepsTreeEntriesWarm: an append whose profiles introduce no
// new call paths moves the content generation but not the tree
// fingerprint — data-derived entries must recompute, tree-derived
// entries must stay warm.
func TestAppendKeepsTreeEntriesWarm(t *testing.T) {
	ts, srv, st, _ := ingestFixture(t, ingest.Options{CompactRun: -1})
	statsURL := "/api/stats?aggs=mean"
	queryURL := "/api/query?q=" + url.QueryEscape(". name == main / *")
	getBody(t, ts, statsURL) // miss
	getBody(t, ts, queryURL) // miss
	hits0, misses0 := srv.CacheStats()

	// Same cluster and node count as the seed ensemble: the union call
	// tree is unchanged, only the rows grow.
	appendMarbl(t, st, 950)

	getBody(t, ts, statsURL) // must recompute: content moved
	getBody(t, ts, queryURL) // must stay warm: tree unchanged
	hits1, misses1 := srv.CacheStats()
	if misses1 != misses0+1 {
		t.Errorf("misses %d -> %d, want exactly one (stats recompute)", misses0, misses1)
	}
	if hits1 != hits0+1 {
		t.Errorf("hits %d -> %d, want exactly one (query stays warm)", hits0, hits1)
	}
}

func mustGet(t *testing.T, ts *httptest.Server, path string) string {
	t.Helper()
	status, body := getBody(t, ts, path)
	if status != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", path, status, body)
	}
	return body
}
