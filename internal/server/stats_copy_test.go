package server_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataframe"
	"repro/internal/server"
)

// statsBody renders what /api/stats answered when it aggregated on a
// deep copy of the resident thicket: the same records, indent and
// trailing newline as the server's JSON writer.
func statsBody(t *testing.T, th *core.Thicket, aggs []string) []byte {
	t.Helper()
	c := th.Copy()
	if err := c.AggregateStats(nil, aggs); err != nil {
		t.Fatal(err)
	}
	f := c.Stats
	cell := func(v dataframe.Value) any {
		switch {
		case v.IsNull():
			return nil
		case v.Kind() == dataframe.Float:
			return v.Float()
		case v.Kind() == dataframe.Int:
			return v.Int()
		case v.Kind() == dataframe.Bool:
			return v.Bool()
		}
		return v.Str()
	}
	rows := make([]map[string]any, f.NRows())
	for r := range rows {
		rec := map[string]any{}
		for l, v := range f.Index().KeyAt(r) {
			rec[f.Index().Names()[l]] = cell(v)
		}
		for c := 0; c < f.NCols(); c++ {
			rec[f.ColIndex().Key(c).String()] = cell(f.ColumnAt(c).At(r))
		}
		rows[r] = rec
	}
	b, err := json.MarshalIndent(map[string]any{"count": f.NRows(), "rows": rows}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestStatsCopyConcurrentMisses: concurrent /api/stats misses with
// different aggs= each aggregate on a thicket that shares the resident
// tree, perf data and metadata but owns its stats table. The resident
// stats must come through untouched — including a column the requests
// recompute in place — and every answer must match the deep-copy path
// byte for byte.
func TestStatsCopyConcurrentMisses(t *testing.T) {
	th := buildThicket(t)
	// A resident "…_mean" column with a sentinel cell: aggs=mean requests
	// overwrite their copy of it in place.
	if err := th.AggregateStats(nil, []string{"mean"}); err != nil {
		t.Fatal(err)
	}
	if err := th.Stats.ColumnAt(0).Set(0, dataframe.Float64(-1)); err != nil {
		t.Fatal(err)
	}
	before := th.Stats.Copy()

	aggSets := [][]string{{"mean"}, {"std"}, {"mean", "std"}, {"min", "max"}, {"median", "p90"}, {"count", "sum", "cv"}}
	want := make([][]byte, len(aggSets))
	for i, aggs := range aggSets {
		want[i] = statsBody(t, th, aggs)
	}

	srv := memServer(t, th, server.Options{CacheBytes: -1, MaxConcurrent: 8})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	const rounds = 4
	var wg sync.WaitGroup
	errs := make(chan error, rounds*len(aggSets))
	for r := 0; r < rounds; r++ {
		for i, aggs := range aggSets {
			wg.Add(1)
			go func(i int, aggs []string) {
				defer wg.Done()
				q := strings.Join(aggs, ",")
				resp, err := http.Get(ts.URL + "/api/stats?aggs=" + q)
				if err != nil {
					errs <- err
					return
				}
				defer resp.Body.Close()
				body, err := io.ReadAll(resp.Body)
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK || string(body) != string(want[i]) {
					errs <- fmt.Errorf("aggs=%s: status %d, body differs from the deep-copy path:\n%s", q, resp.StatusCode, body)
				}
			}(i, aggs)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if !th.Stats.Equal(before) {
		t.Errorf("resident stats changed: %d columns, want %d", th.Stats.NCols(), before.NCols())
	}
}
