package server_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/store"
)

func getBody(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
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

// TestCacheHitCounter: the second identical request is a hit and serves
// byte-identical content.
func TestCacheHitCounter(t *testing.T) {
	srv := memServer(t, buildThicket(t), server.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, first := getBody(t, ts, "/api/stats?aggs=mean")
	if h, m := srv.CacheStats(); h != 0 || m != 1 {
		t.Fatalf("after first request: hits=%d misses=%d, want 0/1", h, m)
	}
	_, second := getBody(t, ts, "/api/stats?aggs=mean")
	if h, m := srv.CacheStats(); h != 1 || m != 1 {
		t.Fatalf("after second request: hits=%d misses=%d, want 1/1", h, m)
	}
	if first != second {
		t.Fatal("cached response differs from computed response")
	}
}

// TestCacheCanonicalKey: requests that differ only in query-parameter
// order share one cache entry.
func TestCacheCanonicalKey(t *testing.T) {
	srv := memServer(t, buildThicket(t), server.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, a := getBody(t, ts, "/api/groupby?by=cluster&aggs=mean")
	_, b := getBody(t, ts, "/api/groupby?aggs=mean&by=cluster")
	if a != b {
		t.Fatal("responses differ across parameter orderings")
	}
	if h, m := srv.CacheStats(); h != 1 || m != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1 (canonicalization failed)", h, m)
	}
}

// TestCacheErrorsNotCached: 400 responses bypass the cache.
func TestCacheErrorsNotCached(t *testing.T) {
	srv := memServer(t, buildThicket(t), server.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		if status, _ := getBody(t, ts, "/api/groupby"); status != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", status)
		}
	}
	if h, _ := srv.CacheStats(); h != 0 {
		t.Fatalf("error response was served from cache (hits=%d)", h)
	}
}

// TestCacheDisabled: a negative budget turns caching off entirely.
func TestCacheDisabled(t *testing.T) {
	srv := memServer(t, buildThicket(t), server.Options{CacheBytes: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	getBody(t, ts, "/api/stats?aggs=mean")
	getBody(t, ts, "/api/stats?aggs=mean")
	if h, m := srv.CacheStats(); h != 0 || m != 0 {
		t.Fatalf("hits=%d misses=%d, want 0/0 with cache disabled", h, m)
	}
}

// TestAppendInvalidatesCache: appending a segment to the backing store
// moves its generation; the server must reload the thicket, flush the
// cache, and answer with the enlarged ensemble.
func TestAppendInvalidatesCache(t *testing.T) {
	profiles, err := sim.MarblEnsemble([]sim.MarblCluster{sim.ClusterRZTopaz}, []int{1, 4}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	th1, err := core.FromProfiles(profiles, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "grow.tks")
	if err := store.CreateDir(path, th1); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	loaded, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}

	srv := server.New(loaded, st, server.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var before struct {
		Count int `json:"count"`
	}
	_, body := getBody(t, ts, "/api/summary?by=cluster")
	if err := json.Unmarshal([]byte(body), &before); err != nil {
		t.Fatal(err)
	}
	// Warm the cache and confirm the entry is live.
	getBody(t, ts, "/api/summary?by=cluster")
	if h, _ := srv.CacheStats(); h != 1 {
		t.Fatalf("expected a warm cache entry, hits=%d", h)
	}

	// Grow the store: a different cluster yields distinct profile hashes.
	more, err := sim.MarblEnsemble([]sim.MarblCluster{sim.ClusterAWS}, []int{1, 4}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendProfiles(more); err != nil {
		t.Fatal(err)
	}

	var after struct {
		Count int              `json:"count"`
		Rows  []map[string]any `json:"rows"`
	}
	_, body = getBody(t, ts, "/api/summary?by=cluster")
	if err := json.Unmarshal([]byte(body), &after); err != nil {
		t.Fatal(err)
	}
	if after.Count <= before.Count {
		t.Fatalf("summary rows did not grow after append: before=%d after=%d (stale cache?)", before.Count, after.Count)
	}

	// The post-append request recomputed (flush), not served stale.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz struct {
		Reloads int64 `json:"reloads"`
		Cache   struct {
			Generation int64 `json:"generation"`
		} `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.Reloads != 1 {
		t.Errorf("reloads = %d, want 1", hz.Reloads)
	}
	if hz.Cache.Generation != st.Generation() {
		t.Errorf("cache generation %d, store generation %d", hz.Cache.Generation, st.Generation())
	}
}

// TestCacheSingleFlight: concurrent identical misses compute once; the
// rest wait for the leader's bytes. With the race detector this also
// validates the flight-table synchronization.
func TestCacheSingleFlight(t *testing.T) {
	srv := memServer(t, buildThicket(t), server.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const clients = 16
	bodies := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/api/stats?aggs=mean,std")
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			bodies[i] = string(b)
		}(i)
	}
	wg.Wait()
	for i := 1; i < clients; i++ {
		if bodies[i] != bodies[0] {
			t.Fatalf("client %d got a different body", i)
		}
	}
	h, m := srv.CacheStats()
	if h+m != clients {
		t.Fatalf("hits+misses = %d, want %d", h+m, clients)
	}
	if m < 1 || m > 2 {
		// Exactly one leader computes per flight; a second miss can only
		// happen if a request lands after the leader published but the
		// entry was evicted — impossible here, so allow at most a benign
		// timing double.
		t.Fatalf("misses = %d, want 1", m)
	}
}
