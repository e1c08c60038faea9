package server_test

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/plan"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// metricValue extracts one counter's value from Prometheus text by its
// exact series prefix (name + label set).
func metricValue(t *testing.T, text, series string) int64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
			if err != nil {
				t.Fatalf("bad metric line %q: %v", line, err)
			}
			return v
		}
	}
	return 0
}

// querylog fetches and decodes /debug/querylog.
func querylog(t *testing.T, ts *httptest.Server) (records []server.QueryRecord, totals server.QueryLogTotals) {
	t.Helper()
	status, body := fetch(t, ts, "/debug/querylog")
	if status != http.StatusOK {
		t.Fatalf("/debug/querylog: %d\n%s", status, body)
	}
	var out struct {
		Records []server.QueryRecord  `json:"records"`
		Totals  server.QueryLogTotals `json:"totals"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("bad /debug/querylog payload: %v\n%s", err, body)
	}
	return out.Records, out.Totals
}

// TestExplainPlanEndpoint: explain=plan returns the prune verdicts
// without executing — the payload is the tree alone, and a plan-only
// request moves no plan counters.
func TestExplainPlanEndpoint(t *testing.T) {
	ts, _, _ := planFixture(t)
	_, before := fetch(t, ts, "/metrics")

	status, body := fetch(t, ts, "/api/profiles?where=cluster=ip-0A2D2BE2&explain=plan")
	if status != http.StatusOK {
		t.Fatalf("explain=plan: %d\n%s", status, body)
	}
	var out struct {
		Explain *plan.Explain            `json:"explain"`
		Rows    []map[string]interface{} `json:"rows"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if out.Explain == nil {
		t.Fatalf("explain=plan returned no tree:\n%s", body)
	}
	if out.Rows != nil {
		t.Error("explain=plan materialized rows; it must not execute")
	}
	ex := out.Explain
	if ex.Analyzed {
		t.Error("plan-only tree marked analyzed")
	}
	if ex.Mode != "store" || ex.Where != "cluster=ip-0A2D2BE2" {
		t.Errorf("tree header = mode %q where %q", ex.Mode, ex.Where)
	}
	if len(ex.Segments) != 2 {
		t.Fatalf("tree has %d segments, want 2", len(ex.Segments))
	}
	verdicts := map[string]int{}
	for _, se := range ex.Segments {
		verdicts[se.Verdict]++
	}
	if verdicts[plan.VerdictScanned] != 1 || verdicts[plan.VerdictPrunedDict] != 1 {
		t.Errorf("verdicts = %v, want one scanned + one pruned-by-dict", verdicts)
	}
	_, after := fetch(t, ts, "/metrics")
	series := `thicket_plan_blocks_scanned_total{endpoint="/api/profiles"}`
	if d := metricValue(t, after, series) - metricValue(t, before, series); d != 0 {
		t.Errorf("explain=plan moved %s by %d; plan-only must not count as a scan", series, d)
	}

	if status, _ := fetch(t, ts, "/api/profiles?explain=bogus"); status != http.StatusBadRequest {
		t.Errorf("explain=bogus: status %d, want 400", status)
	}
}

// TestExplainAnalyzeReconcilesWithMetrics is the acceptance criterion:
// the tree explain=analyze returns for a where= query against a v3
// store must reconcile exactly with the /metrics plan-counter movement
// caused by that same request.
func TestExplainAnalyzeReconcilesWithMetrics(t *testing.T) {
	ts, _, _ := planFixture(t)
	_, before := fetch(t, ts, "/metrics")

	status, body := fetch(t, ts, "/api/profiles?where=cluster=ip-0A2D2BE2&explain=analyze")
	if status != http.StatusOK {
		t.Fatalf("explain=analyze: %d\n%s", status, body)
	}
	var out struct {
		Count   int           `json:"count"`
		Explain *plan.Explain `json:"explain"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if out.Explain == nil {
		t.Fatalf("explain=analyze returned no tree:\n%s", body)
	}
	ex := out.Explain
	if !ex.Analyzed {
		t.Error("analyzed tree not marked analyzed")
	}
	if out.Count != ex.Stats.RowsMaterialized {
		t.Errorf("payload count %d != tree rows_materialized %d", out.Count, ex.Stats.RowsMaterialized)
	}
	for _, se := range ex.Segments {
		if se.Version < 3 {
			t.Errorf("segment g%d is v%d; fixture must exercise the v3 format", se.Gen, se.Version)
		}
	}
	// Each segment's verdict must carry measured per-segment accounting
	// that sums to the totals.
	sumDecoded, sumSkipped := 0, 0
	for _, se := range ex.Segments {
		sumDecoded += se.BlocksDecoded
		sumSkipped += se.BlocksSkipped
	}
	if sumDecoded != ex.Stats.BlocksScanned || sumSkipped != ex.Stats.BlocksSkipped {
		t.Errorf("segment block sums (%d, %d) != stats (%d, %d)",
			sumDecoded, sumSkipped, ex.Stats.BlocksScanned, ex.Stats.BlocksSkipped)
	}
	// Stage times are measured on an analyzed plan.
	if ex.Stages.PruneNS <= 0 || ex.Stages.FilterNS <= 0 {
		t.Errorf("analyzed plan has empty stage times: %+v", ex.Stages)
	}

	_, after := fetch(t, ts, "/metrics")
	for series, want := range map[string]int{
		`thicket_plan_blocks_scanned_total{endpoint="/api/profiles"}`:    ex.Stats.BlocksScanned,
		`thicket_plan_blocks_skipped_total{endpoint="/api/profiles"}`:    ex.Stats.BlocksSkipped,
		`thicket_plan_segments_pruned_total{endpoint="/api/profiles"}`:   ex.Stats.SegmentsPruned,
		`thicket_plan_rows_materialized_total{endpoint="/api/profiles"}`: ex.Stats.RowsMaterialized,
	} {
		if d := metricValue(t, after, series) - metricValue(t, before, series); d != int64(want) {
			t.Errorf("%s moved by %d, tree says %d", series, d, want)
		}
	}

	// The same tree lands in the querylog record.
	records, totals := querylog(t, ts)
	var rec *server.QueryRecord
	for i := range records {
		if records[i].Where == "cluster=ip-0A2D2BE2" && records[i].Explain != nil {
			rec = &records[i]
		}
	}
	if rec == nil {
		t.Fatal("querylog has no record with the analyzed tree")
	}
	if rec.Explain.Stats != ex.Stats {
		t.Errorf("querylog tree stats %+v != response tree stats %+v", rec.Explain.Stats, ex.Stats)
	}
	if totals.Queries == 0 || totals.BlocksScanned < int64(ex.Stats.BlocksScanned) {
		t.Errorf("querylog totals do not cover the analyzed query: %+v", totals)
	}
}

// TestUnfilteredExplainAnalyze: an explain=analyze with no where= runs
// the store plan with zero predicates — every segment gets a scanned
// line, and the payload is the unfiltered answer.
func TestUnfilteredExplainAnalyze(t *testing.T) {
	ts, _, th := planFixture(t)
	status, body := fetch(t, ts, "/api/profiles?explain=analyze")
	if status != http.StatusOK {
		t.Fatalf("explain=analyze: %d\n%s", status, body)
	}
	var out struct {
		Count   int           `json:"count"`
		Total   int           `json:"total"`
		Explain *plan.Explain `json:"explain"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	ex := out.Explain
	if ex == nil {
		t.Fatalf("explain=analyze returned no tree:\n%s", body)
	}
	if ex.Mode != "store" || !ex.Analyzed || ex.Where != "" {
		t.Errorf("tree header: mode=%q analyzed=%v where=%q", ex.Mode, ex.Analyzed, ex.Where)
	}
	if len(ex.Segments) != 2 || ex.Stats.Segments != 2 || ex.Stats.SegmentsPruned != 0 {
		t.Fatalf("want one scanned line per segment of 2, got %d lines, stats %+v", len(ex.Segments), ex.Stats)
	}
	rows := 0
	for _, se := range ex.Segments {
		if se.Verdict != plan.VerdictScanned || se.RowsMatched != se.Rows {
			t.Errorf("segment g%d: verdict %q matched %d of %d", se.Gen, se.Verdict, se.RowsMatched, se.Rows)
		}
		rows += se.Rows
	}
	n := th.NumProfiles()
	if ex.Stats.RowsMaterialized != n || ex.Stats.Rows != n || rows != n {
		t.Errorf("rows_materialized %d, rows %d, segment rows %d; want %d profiles",
			ex.Stats.RowsMaterialized, ex.Stats.Rows, rows, n)
	}
	if out.Count != n || out.Total != n {
		t.Errorf("payload count %d total %d, want %d", out.Count, out.Total, n)
	}
}

// TestActiveQueriesAndKill is the mid-scan cancellation path: a query
// slowed by the injected per-block scan delay shows up in
// /debug/queries with a live stage, dies promptly on DELETE, answers
// 503, leaves a canceled/killed querylog record, decrements the active
// registry, and leaks no goroutine.
func TestActiveQueriesAndKill(t *testing.T) {
	ts, srv, _ := planFixture(t)
	srv.SetInjectedScanDelay(25 * time.Millisecond)
	defer srv.SetInjectedScanDelay(0)
	// Baseline after a warm-up request with idle connections drained, so
	// the later leak check counts only goroutines the kill left behind.
	fetch(t, ts, "/healthz")
	http.DefaultClient.CloseIdleConnections()
	time.Sleep(50 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	type result struct {
		status int
		body   string
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/api/profiles?where=numhosts>=1")
		if err != nil {
			done <- result{-1, err.Error()}
			return
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, rerr := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if rerr != nil {
				break
			}
		}
		done <- result{resp.StatusCode, sb.String()}
	}()

	// The inspector must list the query while its scan crawls.
	var id int64 = -1
	deadline := time.Now().Add(5 * time.Second)
	for id < 0 {
		if time.Now().After(deadline) {
			t.Fatal("query never appeared in /debug/queries")
		}
		status, body := fetch(t, ts, "/debug/queries")
		if status != http.StatusOK {
			t.Fatalf("/debug/queries: %d\n%s", status, body)
		}
		var out struct {
			Active []struct {
				ID         int64  `json:"id"`
				Endpoint   string `json:"endpoint"`
				Where      string `json:"where"`
				Stage      string `json:"stage"`
				BlocksRead int64  `json:"blocks_read"`
			} `json:"active"`
		}
		if err := json.Unmarshal([]byte(body), &out); err != nil {
			t.Fatal(err)
		}
		for _, q := range out.Active {
			if q.Endpoint == "/api/profiles" && q.Where == "numhosts>=1" {
				if q.Stage == "" {
					t.Errorf("active query has no live stage: %+v", q)
				}
				id = q.ID
			}
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Kill it; the scan must notice at the next block boundary.
	req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/debug/queries/%d", ts.URL, id), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE /debug/queries/%d: %d", id, resp.StatusCode)
	}

	select {
	case r := <-done:
		if r.status != http.StatusServiceUnavailable {
			t.Errorf("killed query answered %d, want 503\n%s", r.status, r.body)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("killed query did not return promptly")
	}

	// Registry decrements, record lands, counters move.
	status, body := fetch(t, ts, "/debug/queries")
	if status != http.StatusOK || strings.Contains(body, `"where": "numhosts>=1"`) {
		t.Errorf("killed query still listed active:\n%s", body)
	}
	records, totals := querylog(t, ts)
	found := false
	for _, rec := range records {
		if rec.Where == "numhosts>=1" && rec.Outcome == "canceled" && rec.Reason == "killed" {
			found = true
			if rec.Status != http.StatusServiceUnavailable {
				t.Errorf("canceled record carries status %d, want 503", rec.Status)
			}
		}
	}
	if !found {
		t.Errorf("querylog missing canceled/killed record: %+v", records)
	}
	if totals.Canceled == 0 {
		t.Errorf("querylog totals count no cancellations: %+v", totals)
	}
	_, metrics := fetch(t, ts, "/metrics")
	if metricValue(t, metrics, `thicket_queries_canceled_total{reason="killed"}`) == 0 {
		t.Error(`/metrics missing thicket_queries_canceled_total{reason="killed"} > 0`)
	}

	// No goroutine may outlive the kill (the -race run also checks the
	// scan's fan-out workers saw the cancel).
	deadline = time.Now().Add(5 * time.Second)
	for {
		http.DefaultClient.CloseIdleConnections()
		runtime.GC()
		if runtime.NumGoroutine() <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Unknown and malformed IDs answer 404/400.
	for _, tc := range []struct {
		path string
		want int
	}{
		{"/debug/queries/999999", http.StatusNotFound},
		{"/debug/queries/nope", http.StatusBadRequest},
	} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+tc.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("DELETE %s: %d, want %d", tc.path, resp.StatusCode, tc.want)
		}
	}
}

// lockedBuffer is a log sink safe to read while handlers write to it.
type lockedBuffer struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}

// TestQuerylogTimesWholeRequest: a routed query's querylog record and
// its slow-plan line are timed from the request's start, as the latency
// histogram and the slow-request line are, so a delay the client waited
// through before the handler ran counts in all of them.
func TestQuerylogTimesWholeRequest(t *testing.T) {
	var logs lockedBuffer
	ts, srv, _ := planFixtureOpts(t, server.Options{
		SlowQuery: 20 * time.Millisecond,
		Logger:    telemetry.NewJSONLogger(&logs, slog.LevelWarn),
	})
	const delay = 30 * time.Millisecond
	srv.SetInjectedLatency("/api/stats", delay)
	if status, body := fetch(t, ts, "/api/stats?where=cluster=rztopaz"); status != http.StatusOK {
		t.Fatalf("/api/stats: %d\n%s", status, body)
	}
	srv.SetInjectedLatency("/api/stats", 0)

	// The record and the plan line land when the handler returns, which
	// may be after the client has read the body.
	var rec *server.QueryRecord
	var planLine map[string]any
	for deadline := time.Now().Add(5 * time.Second); (rec == nil || planLine == nil) && time.Now().Before(deadline); {
		records, _ := querylog(t, ts)
		for i := range records {
			if records[i].Endpoint == "/api/stats" {
				rec = &records[i]
			}
		}
		for _, line := range strings.Split(logs.String(), "\n") {
			if strings.Contains(line, `"slow query plan"`) {
				if err := json.Unmarshal([]byte(line), &planLine); err != nil {
					t.Fatalf("slow-plan line is not JSON: %v\n%s", err, line)
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if rec == nil {
		t.Fatal("querylog holds no /api/stats record")
	}
	if rec.LatencyUS < delay.Microseconds() {
		t.Errorf("querylog latency_us = %d, want at least the %d injected", rec.LatencyUS, delay.Microseconds())
	}
	if planLine == nil {
		t.Fatalf("no slow query plan line for a request past -slow-query:\n%s", logs.String())
	}
	if us, _ := planLine[telemetry.LogKeyLatencyUS].(float64); us < float64(delay.Microseconds()) {
		t.Errorf("slow query plan latency_us = %v, want at least the %d injected", us, delay.Microseconds())
	}
}

// TestQueryTimeout is the degradation drill: a -timeout below an
// injected latency yields 503, and the request, whose context the
// deadline canceled, stops waiting and leaves a canceled querylog
// record with reason "timeout".
func TestQueryTimeout(t *testing.T) {
	ts, srv, _ := planFixtureOpts(t, server.Options{Timeout: 30 * time.Millisecond})
	srv.SetInjectedLatency("/api/profiles", 120*time.Millisecond)
	status, body := fetch(t, ts, "/api/profiles?where=numhosts>=1")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("timed-out query answered %d, want 503\n%s", status, body)
	}
	// The 503 goes out at the deadline; the record lands when the
	// query's goroutine returns. The polls run under the same timeout,
	// so one that timed out itself is retried.
	var log struct {
		Records []server.QueryRecord  `json:"records"`
		Totals  server.QueryLogTotals `json:"totals"`
	}
	found := false
	for deadline := time.Now().Add(5 * time.Second); !found && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		status, body := fetch(t, ts, "/debug/querylog")
		if status != http.StatusOK {
			continue
		}
		if err := json.Unmarshal([]byte(body), &log); err != nil {
			t.Fatalf("bad /debug/querylog payload: %v\n%s", err, body)
		}
		for _, rec := range log.Records {
			if rec.Outcome == "canceled" && rec.Reason == "timeout" {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("querylog missing canceled/timeout record: %+v", log.Records)
	}
	if log.Totals.TimedOut == 0 {
		t.Errorf("querylog totals count no timeouts: %+v", log.Totals)
	}
	metrics := ""
	for deadline := time.Now().Add(5 * time.Second); metrics == "" && time.Now().Before(deadline); {
		if status, body := fetch(t, ts, "/metrics"); status == http.StatusOK {
			metrics = body
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if metricValue(t, metrics, `thicket_queries_canceled_total{reason="timeout"}`) == 0 {
		t.Error(`/metrics missing thicket_queries_canceled_total{reason="timeout"} > 0`)
	}
}
