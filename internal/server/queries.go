package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/plan"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// queries.go is the per-query observability layer: every routed query
// registers in a bounded active-query registry (GET /debug/queries,
// DELETE /debug/queries/{id} to cancel), and every completed query
// leaves a structured record — ExecStats, plan tree, outcome, cache
// disposition, trace ID — in a bounded ring at /debug/querylog. The
// registry entry doubles as the query's live progress sink: it is the
// plan.Progress hook (stage transitions) and the store.ScanObserver
// (blocks touched), so the inspector shows where an in-flight query is
// stuck, and cancellation propagates through the same context the scan
// checks at every block boundary.

// maxTrackedQueries bounds the active-query registry; requests beyond
// the bound still run, they just are not individually listed.
const maxTrackedQueries = 256

// queryLogSize bounds the completed-query ring.
const queryLogSize = 128

// Query outcomes.
const (
	outcomeOK       = "ok"
	outcomeError    = "error"
	outcomeCanceled = "canceled"
)

// Cancellation reasons.
const (
	reasonKilled       = "killed"  // DELETE /debug/queries/{id}
	reasonTimeout      = "timeout" // -timeout deadline
	reasonDisconnected = "disconnected"
)

// activeQuery is one in-flight routed request. The request goroutine
// owns the plain fields; stage and blocks are atomics because the
// inspector reads them (and block decodes write them) concurrently.
type activeQuery struct {
	id       int64
	endpoint string
	where    string
	explain  string
	traceID  string
	start    time.Time
	stage    atomic.Value // string: live lifecycle stage
	blocks   atomic.Int64 // blocks touched so far (ScanObserver)
	cancel   context.CancelFunc
	killed   atomic.Bool     // canceled via DELETE
	ctx      context.Context // the query's own context (set by route)
	srv      *Server

	// Filled by filteredThicket on the request goroutine, read by
	// finishQuery on the same goroutine after the handler returns.
	stats   *plan.ExecStats
	tree    *plan.Explain
	outcome string
	reason  string
}

// Stage implements plan.Progress.
func (q *activeQuery) Stage(stage string) { q.stage.Store(stage) }

// BlockRead implements store.ScanObserver: it counts the block and
// applies the injected per-block scan delay (the deterministic
// mid-scan cancellation hook), sleeping interruptibly so a canceled
// query never waits the delay out.
func (q *activeQuery) BlockRead(frame, column string) {
	q.blocks.Add(1)
	if d := q.srv.injectedScanDelay(); d > 0 && q.ctx != nil {
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-q.ctx.Done():
			t.Stop()
		}
	}
}

func (q *activeQuery) liveStage() string {
	if s, ok := q.stage.Load().(string); ok {
		return s
	}
	return "queued"
}

// queryRegistry tracks in-flight routed requests, bounded.
type queryRegistry struct {
	mu        sync.Mutex
	nextID    int64
	active    map[int64]*activeQuery
	untracked atomic.Int64 // requests that ran unlisted (registry full)
}

// register enters q into the registry (assigning its ID) unless the
// registry is at capacity, in which case the query still gets an ID and
// runs — it just is not listed or individually cancelable.
func (qr *queryRegistry) register(q *activeQuery) {
	qr.mu.Lock()
	defer qr.mu.Unlock()
	qr.nextID++
	q.id = qr.nextID
	if len(qr.active) >= maxTrackedQueries {
		qr.untracked.Add(1)
		return
	}
	qr.active[q.id] = q
}

// remove drops q; a no-op for untracked queries.
func (qr *queryRegistry) remove(q *activeQuery) {
	qr.mu.Lock()
	defer qr.mu.Unlock()
	delete(qr.active, q.id)
}

func (qr *queryRegistry) get(id int64) *activeQuery {
	qr.mu.Lock()
	defer qr.mu.Unlock()
	return qr.active[id]
}

func (qr *queryRegistry) len() int {
	qr.mu.Lock()
	defer qr.mu.Unlock()
	return len(qr.active)
}

// snapshot lists the active queries ordered by ID.
func (qr *queryRegistry) snapshot() []*activeQuery {
	qr.mu.Lock()
	out := make([]*activeQuery, 0, len(qr.active))
	for _, q := range qr.active {
		out = append(out, q)
	}
	qr.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// QueryRecord is one completed query in the /debug/querylog ring.
type QueryRecord struct {
	ID       int64  `json:"id"`
	Endpoint string `json:"endpoint"`
	Where    string `json:"where,omitempty"`
	TraceID  string `json:"trace_id"`
	Status   int    `json:"status"`
	Outcome  string `json:"outcome"`
	// Reason qualifies a canceled outcome: killed, timeout, or
	// disconnected.
	Reason    string `json:"reason,omitempty"`
	Cache     string `json:"cache"` // hit, miss, wait, uncached, none
	LatencyUS int64  `json:"latency_us"`
	// BlocksRead counts blocks the scan actually touched live (cache
	// hits included) — the inspector's progress unit.
	BlocksRead int64           `json:"blocks_read"`
	Stats      *plan.ExecStats `json:"stats,omitempty"`
	Explain    *plan.Explain   `json:"explain,omitempty"`
}

// QueryLogTotals aggregates across every completed query since start,
// independent of the ring bound — the loadgen plan-efficiency summary
// reads these.
type QueryLogTotals struct {
	Queries          int64 `json:"queries"`
	Canceled         int64 `json:"canceled"`
	TimedOut         int64 `json:"timed_out"`
	Segments         int64 `json:"segments"`
	SegmentsPruned   int64 `json:"segments_pruned"`
	BlocksScanned    int64 `json:"blocks_scanned"`
	BlocksSkipped    int64 `json:"blocks_skipped"`
	RowsMaterialized int64 `json:"rows_materialized"`
}

// queryLog is the bounded completed-query ring plus running totals.
type queryLog struct {
	mu     sync.Mutex
	ring   []QueryRecord
	next   int
	filled int
	totals QueryLogTotals
}

func (l *queryLog) add(rec QueryRecord) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ring[l.next] = rec
	l.next = (l.next + 1) % len(l.ring)
	if l.filled < len(l.ring) {
		l.filled++
	}
	l.totals.Queries++
	if rec.Outcome == outcomeCanceled {
		l.totals.Canceled++
		if rec.Reason == reasonTimeout {
			l.totals.TimedOut++
		}
	}
	if rec.Stats != nil {
		l.totals.Segments += int64(rec.Stats.Segments)
		l.totals.SegmentsPruned += int64(rec.Stats.SegmentsPruned)
		l.totals.BlocksScanned += int64(rec.Stats.BlocksScanned)
		l.totals.BlocksSkipped += int64(rec.Stats.BlocksSkipped)
		l.totals.RowsMaterialized += int64(rec.Stats.RowsMaterialized)
	}
}

// tail returns the newest n records, oldest of the selection first.
func (l *queryLog) tail(n int) []QueryRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n > l.filled {
		n = l.filled
	}
	out := make([]QueryRecord, 0, n)
	for i := 0; i < n; i++ {
		idx := (l.next - n + i + len(l.ring)) % len(l.ring)
		out = append(out, l.ring[idx])
	}
	return out
}

func (l *queryLog) snapshotTotals() QueryLogTotals {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.totals
}

// beginQuery registers one routed request, which started at start, in
// the inspector and returns the query context: cancelable (a DELETE
// kill cancels it, and so does the -timeout deadline on the request
// context it derives from) and observed (plan stages and block progress
// feed the registry entry).
func (s *Server) beginQuery(path string, r *http.Request, start time.Time) (*activeQuery, *http.Request) {
	ctx, cancel := context.WithCancel(r.Context())
	q := &activeQuery{
		endpoint: path,
		where:    strings.Join(r.URL.Query()["where"], ","),
		explain:  r.URL.Query().Get("explain"),
		start:    start,
		cancel:   cancel,
		srv:      s,
	}
	if tc, ok := telemetry.TraceFromContext(ctx); ok {
		q.traceID = tc.TraceID
	}
	q.stage.Store("queued")
	s.queries.register(q)
	s.activeGauge.Set(int64(s.queries.len()))
	ctx = plan.WithProgress(ctx, q)
	ctx = store.WithScanObserver(ctx, q)
	ctx = context.WithValue(ctx, activeQueryKey{}, q)
	q.ctx = ctx
	return q, r.WithContext(ctx)
}

type activeQueryKey struct{}

// activeQueryFrom extracts the request's registry entry, nil when the
// request did not pass through beginQuery.
func activeQueryFrom(ctx context.Context) *activeQuery {
	q, _ := ctx.Value(activeQueryKey{}).(*activeQuery)
	return q
}

// finishQuery deregisters q, appends its querylog record, bumps the
// cancellation counters, and — for slow queries that carry a plan tree
// — emits the full tree through the structured log with the trace-ID
// exemplar.
func (s *Server) finishQuery(q *activeQuery, status int, cache string) {
	elapsed := time.Since(q.start)
	q.cancel()
	s.queries.remove(q)
	s.activeGauge.Set(int64(s.queries.len()))
	outcome := q.outcome
	if outcome == "" {
		if status >= 400 {
			outcome = outcomeError
		} else {
			outcome = outcomeOK
		}
	}
	if outcome == outcomeCanceled {
		switch q.reason {
		case reasonKilled:
			s.queriesKilled.Inc()
		case reasonTimeout:
			s.queriesTimedOut.Inc()
		default:
			s.queriesDisconnected.Inc()
		}
	}
	rec := QueryRecord{
		ID:         q.id,
		Endpoint:   q.endpoint,
		Where:      q.where,
		TraceID:    q.traceID,
		Status:     status,
		Outcome:    outcome,
		Reason:     q.reason,
		Cache:      cache,
		LatencyUS:  elapsed.Microseconds(),
		BlocksRead: q.blocks.Load(),
		Stats:      q.stats,
		Explain:    q.tree,
	}
	s.qlog.add(rec)
	if s.opts.SlowQuery > 0 && elapsed > s.opts.SlowQuery && q.tree != nil {
		planJSON, err := json.Marshal(q.tree)
		if err == nil {
			s.log.Warn("slow query plan",
				slog.String(telemetry.LogKeyEndpoint, q.endpoint),
				slog.String(telemetry.LogKeyQuery, q.where),
				slog.String(telemetry.LogKeyTraceID, q.traceID),
				slog.Int64(telemetry.LogKeyLatencyUS, elapsed.Microseconds()),
				slog.String("plan", string(planJSON)),
			)
		}
	}
}

// handleDebugQueries lists the in-flight routed queries: ID, endpoint,
// where=, trace ID, elapsed, live stage, and blocks touched so far.
func (s *Server) handleDebugQueries(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET only"))
		return
	}
	now := time.Now()
	qs := s.queries.snapshot()
	list := make([]map[string]any, 0, len(qs))
	for _, q := range qs {
		list = append(list, map[string]any{
			"id":          q.id,
			"endpoint":    q.endpoint,
			"where":       q.where,
			"trace_id":    q.traceID,
			"elapsed_us":  now.Sub(q.start).Microseconds(),
			"stage":       q.liveStage(),
			"blocks_read": q.blocks.Load(),
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"active":          list,
		"tracked":         len(qs),
		"max_tracked":     maxTrackedQueries,
		"untracked_total": s.queries.untracked.Load(),
	})
}

// handleDebugQueryKill cancels one in-flight query by ID:
// DELETE /debug/queries/{id}. The query's context is canceled as the
// -timeout deadline cancels it; the store scan notices at the next
// block boundary and the request completes with a 503 and a
// canceled querylog record.
func (s *Server) handleDebugQueryKill(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodDelete {
		w.Header().Set("Allow", http.MethodDelete)
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("DELETE only"))
		return
	}
	raw := strings.TrimPrefix(r.URL.Path, "/debug/queries/")
	id, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || id <= 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad query id %q", raw))
		return
	}
	q := s.queries.get(id)
	if q == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no active query %d", id))
		return
	}
	q.killed.Store(true)
	q.cancel()
	writeJSON(w, http.StatusOK, map[string]any{"status": "canceling", "id": id})
}

// handleDebugQuerylog exposes the completed-query ring (newest ?n=,
// default 32, oldest of the selection first) plus the running totals
// the ring bound does not truncate.
func (s *Server) handleDebugQuerylog(w http.ResponseWriter, r *http.Request) {
	n := 32
	if raw := r.URL.Query().Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad ?n=%q", raw))
			return
		}
		n = v
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"records": s.qlog.tail(n),
		"size":    len(s.qlog.ring),
		"totals":  s.qlog.snapshotTotals(),
	})
}
