// Package server implements thicketd — the resident HTTP query service
// over a columnar ensemble store. Where the CLI re-parses raw profile
// JSON and rebuilds the composed thicket on every invocation, thicketd
// opens a store once, keeps the decoded ensemble warm, and answers EDA
// queries — profile listing and metadata filtering, aggregated
// statistics, group-by summaries, call-path queries, and rendered call
// trees — as JSON over HTTP.
//
// Operational behaviour: every request passes through a bounded
// concurrency gate and a hard per-request timeout; /healthz exposes a
// liveness snapshot with request counters, per-endpoint latency, and
// response-cache statistics; Serve drains in-flight requests on context
// cancellation (graceful shutdown).
//
// Expensive read endpoints (/api/stats, /api/groupby, /api/summary,
// /api/query) are served from a byte-bounded, dependency-stamped
// response cache keyed by the canonicalized request, with single-flight
// dedup of concurrent identical misses. When the backing store's layout
// generation moves, the server refreshes its resident thicket in place
// of reloading it (store.Refresh): an append decodes only the new
// profiles and concatenates them onto the resident ensemble, and a
// compaction, which changes no content, keeps the resident thicket as
// is. Invalidation is incremental: data-derived entries drop only when
// the content generation moved, tree-derived entries only when the
// union call tree changed — so a compaction costs no cache entries at
// all.
//
// With an ingest sink attached (Options.Ingest), POST /ingest accepts
// one serialized profile per request and acks once the profile is
// durable in the write-ahead log. A full admission queue sheds with
// 429 + Retry-After instead of blocking query-serving goroutines.
package server

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataframe"
	"repro/internal/ingest"
	"repro/internal/monitor"
	"repro/internal/plan"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// DefaultSlowQuery is the slow-request log threshold of a server built
// with default options.
const DefaultSlowQuery = time.Second

// maxIngestBytes bounds a single POST /ingest body.
const maxIngestBytes = 64 << 20

// IngestSink accepts one pre-encoded profile for durable ingest.
// *ingest.Ingester satisfies it; tests substitute fakes.
type IngestSink interface {
	SubmitBytes(payload []byte) error
}

// Options configures the service's operational envelope.
type Options struct {
	// MaxConcurrent bounds simultaneously executing requests; further
	// requests queue until a slot frees or their context cancels.
	// 0 selects 64.
	MaxConcurrent int
	// Timeout bounds every request: past it the client gets a 503 and
	// the request context is canceled, so a store scan stops at the next
	// block boundary and the querylog records the query as canceled with
	// reason "timeout". 0 selects 15s.
	Timeout time.Duration
	// CacheBytes bounds the rendered-response cache; 0 selects
	// DefaultCacheBytes, negative disables response caching.
	CacheBytes int64
	// Registry receives the server's metrics (request counters,
	// latency histograms, cache and reload counters) and backs the
	// /metrics endpoint. nil selects a fresh private registry, keeping
	// separate Server instances isolated; pass telemetry.Default to
	// merge with process-wide kernel/store/span metrics (thicketd
	// does).
	Registry *telemetry.Registry
	// SlowQuery is the slow-request log threshold: any request slower
	// than this is logged with its endpoint, query, and latency.
	// 0 selects DefaultSlowQuery, negative disables the log.
	SlowQuery time.Duration
	// Logger receives the server's structured logs: per-request access
	// records at Debug, slow-request warnings at Warn. Every record
	// carries the canonical telemetry.LogKey* fields, including the
	// request's trace and span IDs. nil selects slog.Default().
	Logger *slog.Logger
	// Trace, when set, backs /debug/traces with the collector's retained
	// (sampled) traces.
	Trace *telemetry.Collector
	// Monitor, when set, backs /debug/monitor (windowed metric series
	// from the self-monitoring ring) and /debug/alerts (rule states,
	// latency baselines, and the transition log).
	Monitor *monitor.Sampler
	// Ingest, when set, enables POST /ingest: request bodies are
	// submitted to the sink and acked once durable. nil answers /ingest
	// with 501.
	Ingest IngestSink
}

// endpointMetrics bundles one endpoint's registry handles. All latency
// accounting goes through the histogram, whose snapshot is internally
// consistent — /healthz mean latency can no longer tear between a
// request-count read and a total-time read under concurrent traffic.
type endpointMetrics struct {
	requests    *telemetry.Counter
	latency     *telemetry.Histogram
	cacheHits   *telemetry.Counter
	cacheMisses *telemetry.Counter
	slow        *telemetry.Counter
}

// planMetrics bundles one endpoint's compiled-plan scan accounting:
// how many store blocks the pushdown actually decoded vs skipped via
// zone maps, and how many rows were materialized after filtering.
type planMetrics struct {
	blocksScanned    *telemetry.Counter
	blocksSkipped    *telemetry.Counter
	rowsMaterialized *telemetry.Counter
	segmentsPruned   *telemetry.Counter
}

// Server answers EDA queries over one resident thicket backed by a
// store.
type Server struct {
	th   atomic.Pointer[core.Thicket]
	st   *store.Store // runs where=/explain= plans, backs /api/info, drives reloads
	opts Options

	sem chan struct{}

	reg        *telemetry.Registry
	requests   *telemetry.Counter
	inFlight   *telemetry.Gauge
	reloads    *telemetry.Counter
	reloadErrs *telemetry.Counter
	reloadDur  map[string]*telemetry.Histogram // by store.Refresh mode
	genGauge   *telemetry.Gauge

	cache    *respCache
	gen      atomic.Int64 // store generation the resident thicket reflects
	reloadMu sync.Mutex   // serializes thicket refreshes
	eps      map[string]*endpointMetrics
	plans    map[string]*planMetrics

	queries             *queryRegistry
	qlog                *queryLog
	activeGauge         *telemetry.Gauge
	queriesKilled       *telemetry.Counter
	queriesTimedOut     *telemetry.Counter
	queriesDisconnected *telemetry.Counter
	scanDelay           atomic.Int64 // per-block injected delay, ns

	started time.Time // process-visible uptime epoch for /healthz

	log    *slog.Logger
	inject sync.Map // endpoint path -> time.Duration artificial delay
}

// New builds a server over an already-loaded thicket and the store it
// came from; th should be what st.Load() returned, and New brings it up
// to everything the store has committed since. A thicket that did not
// come from a store is served through store.FromThicket. Every
// where= and explain= request runs its plan against st, /api/info
// reports st's storage-level detail, and whenever the store's
// generation moves (an in-process append or compaction) the server
// refreshes th from the store and invalidates the response cache
// incrementally.
func New(th *core.Thicket, st *store.Store, opts Options) *Server {
	if opts.MaxConcurrent <= 0 {
		opts.MaxConcurrent = 64
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 15 * time.Second
	}
	if opts.CacheBytes == 0 {
		opts.CacheBytes = DefaultCacheBytes
	}
	if opts.Registry == nil {
		opts.Registry = telemetry.NewRegistry()
	}
	if opts.SlowQuery == 0 {
		opts.SlowQuery = DefaultSlowQuery
	}
	if opts.Logger == nil {
		opts.Logger = slog.Default()
	}
	reg := opts.Registry
	s := &Server{
		st:      st,
		opts:    opts,
		sem:     make(chan struct{}, opts.MaxConcurrent),
		reg:     reg,
		cache:   newRespCache(opts.CacheBytes),
		eps:     make(map[string]*endpointMetrics),
		plans:   make(map[string]*planMetrics),
		started: time.Now(),
		log:     opts.Logger.With(telemetry.LogKeyComponent, "server"),
	}
	s.queries = &queryRegistry{active: map[int64]*activeQuery{}}
	s.qlog = &queryLog{ring: make([]QueryRecord, queryLogSize)}
	s.activeGauge = reg.Gauge("thicket_queries_active", "Routed queries currently in flight (tracked by the inspector).")
	s.queriesKilled = reg.Counter("thicket_queries_canceled_total", "Queries canceled before completion, by reason.", "reason", reasonKilled)
	s.queriesTimedOut = reg.Counter("thicket_queries_canceled_total", "Queries canceled before completion, by reason.", "reason", reasonTimeout)
	s.queriesDisconnected = reg.Counter("thicket_queries_canceled_total", "Queries canceled before completion, by reason.", "reason", reasonDisconnected)
	s.requests = reg.Counter("thicket_http_requests_total", "HTTP requests accepted (all paths).")
	s.inFlight = reg.Gauge("thicket_http_in_flight", "HTTP requests currently executing or queued.")
	s.reloads = reg.Counter("thicket_reloads_total", "Resident thicket swaps after the store's content changed.")
	s.reloadErrs = reg.Counter("thicket_reload_errors_total", "Failed thicket reload attempts.")
	s.reloadDur = map[string]*telemetry.Histogram{}
	for _, mode := range []string{store.RefreshDelta, store.RefreshFull} {
		s.reloadDur[mode] = reg.Histogram("thicket_reload_seconds", "Time to build the resident thicket swapped in after a store change, by refresh mode.", "mode", mode)
	}
	s.genGauge = reg.Gauge("thicket_resident_generation", "Store generation the resident thicket reflects.")
	// Bring th up to what the store has committed since it was loaded (a
	// WAL recovery between Load and New appends a segment). Refresh hands
	// th back, with its snapshot's generations, when nothing is new. If
	// it fails, no generation matches -1, so the first request retries.
	gen, contentGen := int64(-1), st.ContentGeneration()
	if fresh, g, cg, _, err := st.Refresh(th); err == nil {
		th, gen, contentGen = fresh, g, cg
	} else {
		s.reloadErrs.Inc()
	}
	s.th.Store(th)
	s.gen.Store(gen)
	s.genGauge.Set(gen)
	s.cache.invalidate(contentGen, treeFingerprint(th))
	for _, path := range []string{
		"/healthz", "/metrics", "/api/info", "/api/profiles", "/api/stats",
		"/api/groupby", "/api/summary", "/api/query", "/api/tree",
		"/ingest", "/debug/traces",
		"/debug/queries", "/debug/querylog",
		"/debug/monitor", "/debug/alerts",
	} {
		s.eps[path] = &endpointMetrics{
			requests:    reg.Counter("thicket_http_endpoint_requests_total", "HTTP requests by endpoint.", "endpoint", path),
			latency:     reg.Histogram("thicket_http_request_seconds", "HTTP request latency by endpoint.", "endpoint", path),
			cacheHits:   reg.Counter("thicket_response_cache_hits_total", "Response-cache hits by endpoint.", "endpoint", path),
			cacheMisses: reg.Counter("thicket_response_cache_misses_total", "Response-cache misses by endpoint.", "endpoint", path),
			slow:        reg.Counter("thicket_http_slow_requests_total", "Requests slower than the slow-query threshold.", "endpoint", path),
		}
	}
	for _, path := range []string{
		"/api/profiles", "/api/stats", "/api/groupby", "/api/summary", "/api/query",
	} {
		s.plans[path] = &planMetrics{
			blocksScanned:    reg.Counter("thicket_plan_blocks_scanned_total", "Store blocks decoded by compiled where= plans.", "endpoint", path),
			blocksSkipped:    reg.Counter("thicket_plan_blocks_skipped_total", "Store blocks skipped via zone-map pushdown.", "endpoint", path),
			rowsMaterialized: reg.Counter("thicket_plan_rows_materialized_total", "Profile rows materialized after plan filtering.", "endpoint", path),
			segmentsPruned:   reg.Counter("thicket_plan_segments_pruned_total", "Whole segments pruned by zone-map pushdown.", "endpoint", path),
		}
	}
	return s
}

// Registry returns the registry holding the server's metrics.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// thicket returns the resident thicket snapshot.
func (s *Server) thicket() *core.Thicket { return s.th.Load() }

// treeFingerprint hashes the union call tree's node paths in pre-order.
// Two thickets with identical trees (regardless of row layout or
// profile count) share a fingerprint, so tree-derived cache entries
// survive appends that don't introduce new call paths.
func treeFingerprint(th *core.Thicket) int64 {
	h := fnv.New64a()
	for _, path := range th.Tree.Paths() {
		for _, frame := range path {
			io.WriteString(h, frame)
			h.Write([]byte{0})
		}
		h.Write([]byte{1})
	}
	return int64(h.Sum64())
}

// maybeReload brings the resident thicket up to date when the backing
// store's layout generation has moved past the resident one. It calls
// store.Refresh, which decodes only profiles the resident thicket lacks.
// When Refresh hands the resident thicket back (a compaction: new
// layout, same content), the server adopts the new generation with no
// swap, no invalidation and no reload counted. Otherwise it swaps in the
// refreshed thicket and invalidates the response cache incrementally,
// against the generations Refresh read together with the segment set it
// decoded: data-derived entries only if the content generation moved,
// tree-derived entries only if the union tree changed. On failure the
// server keeps answering from the stale thicket and counts the error;
// the next request retries.
func (s *Server) maybeReload() {
	if s.st.Generation() == s.gen.Load() {
		return
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if s.st.Generation() == s.gen.Load() { // another request refreshed while we waited
		return
	}
	prev := s.thicket()
	start := time.Now()
	th, gen, contentGen, mode, err := s.st.Refresh(prev)
	if err != nil {
		s.reloadErrs.Inc()
		return
	}
	if th != prev {
		s.th.Store(th)
		s.cache.invalidate(contentGen, treeFingerprint(th))
		s.reloads.Inc()
		s.reloadDur[mode].Observe(time.Since(start).Seconds())
	}
	s.gen.Store(gen)
	s.genGauge.Set(gen)
}

// Handler returns the full middleware-wrapped HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.instrument("/healthz", s.handleHealthz))
	mux.HandleFunc("/metrics", s.instrument("/metrics", s.handleMetrics))
	mux.HandleFunc("/api/info", s.route("/api/info", depNone, s.infoResponse))
	mux.HandleFunc("/api/profiles", s.route("/api/profiles", depNone, s.profilesResponse))
	mux.HandleFunc("/api/stats", s.route("/api/stats", depData, s.statsResponse))
	mux.HandleFunc("/api/groupby", s.route("/api/groupby", depData, s.groupByResponse))
	mux.HandleFunc("/api/summary", s.route("/api/summary", depData, s.summaryResponse))
	mux.HandleFunc("/api/query", s.route("/api/query", depTree, s.queryResponse))
	mux.HandleFunc("/api/tree", s.route("/api/tree", depNone, s.treeResponse))
	mux.HandleFunc("/ingest", s.instrument("/ingest", s.handleIngest))
	mux.HandleFunc("/debug/traces", s.instrument("/debug/traces", s.handleDebugTraces))
	mux.HandleFunc("/debug/queries", s.instrument("/debug/queries", s.handleDebugQueries))
	mux.HandleFunc("/debug/queries/", s.instrument("/debug/queries", s.handleDebugQueryKill))
	mux.HandleFunc("/debug/querylog", s.instrument("/debug/querylog", s.handleDebugQuerylog))
	mux.HandleFunc("/debug/monitor", s.instrument("/debug/monitor", s.handleDebugMonitor))
	mux.HandleFunc("/debug/alerts", s.instrument("/debug/alerts", s.handleDebugAlerts))
	var h http.Handler = mux
	h = s.limit(h)
	h = http.TimeoutHandler(h, s.opts.Timeout, `{"error":"request timed out"}`)
	// trace sits OUTSIDE the timeout handler and the concurrency gate,
	// so shed (429/503) and timed-out responses still carry the
	// traceparent the client can chase.
	h = s.trace(h)
	h = s.count(h)
	return h
}

// trace mints (or adopts from an incoming traceparent) the request's
// W3C trace context once, stamps the response header before any inner
// middleware can answer, and propagates the identity through the
// request context. Stamping here — outside limit and TimeoutHandler —
// is what guarantees a shed 503, a timed-out 503, or an ingest 429
// still echoes the trace ID.
func (s *Server) trace(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tc, err := telemetry.ParseTraceparent(r.Header.Get("traceparent"))
		if err != nil {
			tc = telemetry.NewTraceContext()
		}
		self := tc.Child() // this request's server-side span identity
		w.Header().Set("traceparent", self.Traceparent())
		h.ServeHTTP(w, r.WithContext(telemetry.ContextWithTrace(r.Context(), self)))
	})
}

// SetInjectedLatency sets (or, with d <= 0, clears) the artificial
// delay added to one endpoint — the runtime knob behind the
// latency-baseline alert demo.
func (s *Server) SetInjectedLatency(path string, d time.Duration) {
	if d <= 0 {
		s.inject.Delete(path)
		return
	}
	s.inject.Store(path, d)
}

func (s *Server) injectedLatency(path string) time.Duration {
	if v, ok := s.inject.Load(path); ok {
		return v.(time.Duration)
	}
	return 0
}

// SetInjectedScanDelay sets (or, with d <= 0, clears) the artificial
// per-block pause applied to routed queries' store scans — the
// deterministic knob behind the mid-scan cancellation tests.
func (s *Server) SetInjectedScanDelay(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.scanDelay.Store(int64(d))
}

func (s *Server) injectedScanDelay() time.Duration {
	return time.Duration(s.scanDelay.Load())
}

// statusRecorder captures the response status for span attrs and logs,
// and carries the request's start, the one clock every record of the
// request reads.
type statusRecorder struct {
	http.ResponseWriter
	status int
	start  time.Time
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with per-endpoint accounting under the
// trace context the trace middleware put on the request: a request
// counter, a latency histogram, structured access/slow-request logs
// carrying the trace ID, and — when telemetry is enabled — a span
// covering the whole request, propagated through the request context so
// downstream work can nest under it.
func (s *Server) instrument(path string, h http.HandlerFunc) http.HandlerFunc {
	ep := s.eps[path]
	return func(w http.ResponseWriter, r *http.Request) {
		// The trace middleware minted the identity already.
		self, _ := telemetry.TraceFromContext(r.Context())
		ctx, sp := telemetry.StartSpan(r.Context(), "http "+path)
		sp.SetTraceID(self.TraceID)
		r = r.WithContext(ctx)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK, start: time.Now()}
		if d := s.injectedLatency(path); d > 0 {
			// A request past its deadline stops waiting and goes on to
			// record its cancellation.
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
			}
		}
		defer func() {
			elapsed := time.Since(rec.start)
			sp.SetAttr("status", strconv.Itoa(rec.status))
			sp.End()
			ep.requests.Inc()
			ep.latency.Observe(elapsed.Seconds())
			fields := []any{
				slog.String(telemetry.LogKeyMethod, r.Method),
				slog.String(telemetry.LogKeyEndpoint, path),
				slog.String(telemetry.LogKeyQuery, r.URL.RawQuery),
				slog.Int(telemetry.LogKeyStatus, rec.status),
				slog.Int64(telemetry.LogKeyLatencyUS, elapsed.Microseconds()),
				slog.String(telemetry.LogKeyTraceID, self.TraceID),
				slog.String(telemetry.LogKeySpanID, self.SpanID),
			}
			if s.opts.SlowQuery > 0 && elapsed > s.opts.SlowQuery {
				ep.slow.Inc()
				s.log.Warn("slow request", fields...)
			} else {
				s.log.Debug("request", fields...)
			}
		}()
		h(rec, r)
	}
}

// route adapts a (status, payload) handler to HTTP, adding latency
// instrumentation, the store-generation freshness check, and — for
// cacheable endpoints (dep != depNone) — the response cache with
// single-flight dedup. Only 200-OK bodies are cached, each stamped with
// the generation of its dependency class so invalidation is
// incremental.
func (s *Server) route(path string, routeDep cacheDep, h func(*http.Request) (int, any)) http.HandlerFunc {
	return s.instrument(path, func(w http.ResponseWriter, r *http.Request) {
		s.maybeReload()
		// The query is timed from instrument's clock, so its record
		// counts the injected delay and the reload the client waited on.
		q, r := s.beginQuery(path, r, w.(*statusRecorder).start)
		status, cacheState := http.StatusOK, "none"
		defer func() { s.finishQuery(q, status, cacheState) }()
		dep := routeDep
		if dep == depTree && len(r.URL.Query()["where"]) > 0 {
			// A where= filter makes even a tree-derived response depend
			// on row content; reclassify so appends invalidate it while
			// unfiltered tree queries stay warm.
			dep = depData
		}
		// explain= responses bypass the cache entirely: an analyzed plan
		// carries per-request timings, and a cached tree would stop the
		// /metrics plan counters from reconciling with the tree returned
		// for *this* request.
		uncached := dep == depNone || !s.cache.enabled() || r.URL.Query().Get("explain") != ""
		if uncached {
			if dep != depNone {
				cacheState = "uncached"
				telemetry.FromContext(r.Context()).SetAttr("cache", "uncached")
			}
			var body []byte
			status, body = render(h(r))
			writeBody(w, status, body)
			return
		}
		ep := s.eps[path]
		sp := telemetry.FromContext(r.Context())
		key := canonicalKey(path, r.URL.Query())
		if body, ok := s.cache.get(key); ok {
			ep.cacheHits.Inc()
			cacheState = "hit"
			sp.SetAttr("cache", "hit")
			writeBody(w, http.StatusOK, body)
			return
		}
		fc, leader := s.cache.join(key)
		if !leader {
			// Another request is computing this exact response; wait and
			// reuse its bytes (statuses are deterministic per key).
			<-fc.done
			ep.cacheHits.Inc()
			cacheState = "wait"
			sp.SetAttr("cache", "wait")
			status = fc.status
			writeBody(w, fc.status, fc.body)
			return
		}
		ep.cacheMisses.Inc()
		cacheState = "miss"
		sp.SetAttr("cache", "miss")
		dataGen, treeGen := s.cache.stamps()
		stamp := dataGen
		if dep == depTree {
			stamp = treeGen
		}
		status, body := render(h(r))
		fc.status, fc.body = status, body
		if status == http.StatusOK {
			s.cache.put(key, body, dep, stamp)
		}
		s.cache.leave(key, fc)
		writeBody(w, status, body)
	})
}

// Serve runs the service on addr until ctx is cancelled, then shuts
// down gracefully, draining in-flight requests.
func (s *Server) Serve(ctx context.Context, addr string) error {
	srv := &http.Server{Addr: addr, Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			return err
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}

// Requests reports the total number of requests accepted so far.
func (s *Server) Requests() int64 { return s.requests.Value() }

// CacheStats reports response-cache counters (hits, misses), summed
// across endpoints from the registry — the single counting site.
func (s *Server) CacheStats() (hits, misses int64) {
	return s.reg.SumCounter("thicket_response_cache_hits_total"),
		s.reg.SumCounter("thicket_response_cache_misses_total")
}

// count is the outermost middleware: total and in-flight counters.
func (s *Server) count(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Inc()
		s.inFlight.Add(1)
		defer s.inFlight.Add(-1)
		h.ServeHTTP(w, r)
	})
}

// limit gates request execution on a bounded semaphore. Queued requests
// abandon the wait when their client goes away.
func (s *Server) limit(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		case <-r.Context().Done():
			writeError(w, http.StatusServiceUnavailable, fmt.Errorf("cancelled while queued"))
			return
		}
		h.ServeHTTP(w, r)
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	th := s.thicket()
	hits, misses := s.CacheStats()
	bytes, entries := s.cache.stats()
	endpoints := map[string]any{}
	for path, ep := range s.eps {
		// One consistent histogram snapshot yields both the request
		// count and the latency sum — the mean can no longer tear
		// between a count read and a sum read under concurrent traffic.
		n, sum := ep.latency.Snapshot()
		if n == 0 {
			continue
		}
		endpoints[path] = map[string]any{
			"requests":       n,
			"cache_hits":     ep.cacheHits.Value(),
			"cache_misses":   ep.cacheMisses.Value(),
			"avg_latency_us": int64(sum * 1e6 / float64(n)),
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"build":          buildInfo(),
		"go_version":     runtime.Version(),
		"uptime_seconds": int64(time.Since(s.started).Seconds()),
		"requests":       s.requests.Value(),
		"in_flight":      s.inFlight.Value(),
		"profiles":       th.NumProfiles(),
		"nodes":          th.Tree.Len(),
		"cache": map[string]any{
			"hits":       hits,
			"misses":     misses,
			"bytes":      bytes,
			"entries":    entries,
			"generation": s.gen.Load(),
		},
		"reloads":     s.reloads.Value(),
		"reload_errs": s.reloadErrs.Value(),
		"endpoints":   endpoints,
		"telemetry": map[string]any{
			"spans_enabled": telemetry.Enabled(),
			"slow_requests": s.reg.SumCounter("thicket_http_slow_requests_total"),
		},
	})
}

// handleMetrics renders the server's registry in the Prometheus text
// exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

// handleIngest accepts one serialized profile per POST and submits it
// to the configured ingest sink, answering once the profile is durable
// (WAL-fsynced). Admission-control outcomes map onto HTTP statuses: a
// full queue sheds with 429 + Retry-After so ingest bursts never starve
// query traffic, a payload that fails to decode is the client's fault
// (400), and a closed or failing sink is the server's (503/500).
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST only"))
		return
	}
	if s.opts.Ingest == nil {
		writeError(w, http.StatusNotImplemented, fmt.Errorf("ingest not enabled on this server"))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxIngestBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, err)
			return
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(body) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("empty request body"))
		return
	}
	switch err := s.opts.Ingest.SubmitBytes(body); {
	case err == nil:
		writeJSON(w, http.StatusOK, map[string]any{"status": "acked"})
	case errors.Is(err, ingest.ErrBacklogged):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ingest.ErrBadPayload):
		writeError(w, http.StatusBadRequest, err)
	case errors.Is(err, ingest.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

// handleDebugTraces exposes the trace collector's retained ring:
// sampling counters plus the newest ?n= retained traces (default 32,
// oldest of the selection first), each annotated with its retention
// reason.
func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	c := s.opts.Trace
	if c == nil {
		writeJSON(w, http.StatusOK, map[string]any{"enabled": false})
		return
	}
	n := 32
	if raw := r.URL.Query().Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad ?n=%q", raw))
			return
		}
		n = v
	}
	retained := c.Retained()
	if len(retained) > n {
		retained = retained[len(retained)-n:]
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"enabled":     true,
		"retained":    c.Len(),
		"dropped":     c.Dropped(),
		"sampled_out": c.SampledOut(),
		"traces":      retained,
	})
}

func (s *Server) infoResponse(r *http.Request) (int, any) {
	th := s.thicket()
	perfCols := make([]string, 0, th.PerfData.NCols())
	for _, k := range th.PerfData.ColIndex().Keys() {
		perfCols = append(perfCols, k.String())
	}
	metaCols := make([]string, 0, th.Metadata.NCols())
	for _, k := range th.Metadata.ColIndex().Keys() {
		metaCols = append(metaCols, k.String())
	}
	out := map[string]any{
		"profiles":      th.NumProfiles(),
		"nodes":         th.Tree.Len(),
		"perf_rows":     th.PerfData.NRows(),
		"perf_columns":  perfCols,
		"meta_columns":  metaCols,
		"profile_level": th.ProfileLevelName(),
		"store":         s.st.Info(),
	}
	return http.StatusOK, out
}

// queryResult is what one endpoint's where=/explain= resolution
// produced: the filtered thicket, its ExecStats, and — when a tree was
// collected — the plan.Explain. planOnly marks an explain=plan request
// (no execution; th is nil and the response is the tree alone);
// analyze marks explain=analyze (the tree rides along with the normal
// payload).
type queryResult struct {
	th       *core.Thicket
	stats    plan.ExecStats
	explain  *plan.Explain
	planOnly bool
	analyze  bool
}

// done attaches the analyzed plan tree to a success payload when the
// request asked for it.
func (qr queryResult) done(out map[string]any) (int, any) {
	if qr.analyze && qr.explain != nil {
		out["explain"] = qr.explain
	}
	return http.StatusOK, out
}

// planPayload is the explain=plan response: the tree instead of rows.
func (qr queryResult) planPayload() (int, any) {
	return http.StatusOK, map[string]any{"explain": qr.explain}
}

// filteredThicket resolves the endpoint's optional where= conjunction
// through the compiled query path, directly against the store (zone
// maps prune segments and blocks before any decode). With no where=
// (and no explain=) the resident thicket is returned untouched; an
// unfiltered explain= runs the same plan with no predicates.
// Every filtered execution also collects its plan tree — it feeds the
// querylog record, the slow-query log, and (on explain=analyze) the
// response itself; explain=plan stops after the prune verdicts. The
// plan's scan accounting lands on the endpoint's counters and on the
// request span's attributes (which the self-profile store dogfoods into
// metadata columns); the returned status is non-zero only on error
// (400 for parse and unknown-column errors, 503 when the query's
// context was canceled — timeout, kill, or disconnect — and 500 for
// storage faults).
func (s *Server) filteredThicket(r *http.Request, endpoint string) (queryResult, int, error) {
	var qr queryResult
	ctx := r.Context()
	q := activeQueryFrom(ctx)
	switch r.URL.Query().Get("explain") {
	case "":
	case "plan":
		qr.planOnly = true
	case "analyze":
		qr.analyze = true
	default:
		return qr, http.StatusBadRequest,
			fmt.Errorf("bad explain=%q (want \"plan\" or \"analyze\")", r.URL.Query().Get("explain"))
	}
	fail := func(err error) (queryResult, int, error) {
		switch {
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			q.outcome = outcomeCanceled
			q.reason = cancelReason(q, err)
			return qr, http.StatusServiceUnavailable, err
		case errors.Is(err, plan.ErrUnknownColumn):
			return qr, http.StatusBadRequest, err
		}
		return qr, http.StatusInternalServerError, err
	}
	q.Stage(plan.StageCompile)
	compileStart := time.Now()
	preds, err := plan.Compile(r.URL.Query()["where"])
	if err != nil {
		return qr, http.StatusBadRequest, err
	}
	compileNS := time.Since(compileStart).Nanoseconds()
	if err := ctx.Err(); err != nil {
		return fail(err)
	}
	if len(preds) == 0 && !qr.planOnly && !qr.analyze {
		// Fast path: no filter, no tree requested.
		th := s.thicket()
		n := th.Metadata.NRows()
		qr.th = th
		qr.stats = plan.ExecStats{Rows: n, RowsMaterialized: n}
		q.stats = &qr.stats
		return qr, 0, nil
	}
	var (
		out *core.Thicket
		ex  *plan.Explain
	)
	if qr.planOnly {
		ex, err = plan.PlanStore(ctx, s.st, preds)
	} else {
		out, ex, err = plan.AnalyzeStore(ctx, s.st, preds)
	}
	if err != nil {
		return fail(err)
	}
	ex.Stages.CompileNS = compileNS
	qr.th = out
	qr.explain = ex
	qr.stats = ex.Stats
	q.stats = &qr.stats
	q.tree = ex
	if !qr.planOnly && len(preds) > 0 {
		if pm := s.plans[endpoint]; pm != nil {
			pm.blocksScanned.Add(int64(qr.stats.BlocksScanned))
			pm.blocksSkipped.Add(int64(qr.stats.BlocksSkipped))
			pm.rowsMaterialized.Add(int64(qr.stats.RowsMaterialized))
			pm.segmentsPruned.Add(int64(qr.stats.SegmentsPruned))
		}
		// Stamp the request span so the self-profile store
		// grows ExecStats metadata columns.
		sp := telemetry.FromContext(ctx)
		sp.SetAttr("plan_blocks_scanned", strconv.Itoa(qr.stats.BlocksScanned))
		sp.SetAttr("plan_blocks_skipped", strconv.Itoa(qr.stats.BlocksSkipped))
		sp.SetAttr("plan_segments_pruned", strconv.Itoa(qr.stats.SegmentsPruned))
		sp.SetAttr("plan_rows_materialized", strconv.Itoa(qr.stats.RowsMaterialized))
	}
	return qr, 0, nil
}

// cancelReason classifies why a query's context died: an explicit
// DELETE kill, the -timeout deadline, or the client going away.
func cancelReason(q *activeQuery, err error) string {
	if q.killed.Load() {
		return reasonKilled
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return reasonTimeout
	}
	return reasonDisconnected
}

func (s *Server) profilesResponse(r *http.Request) (int, any) {
	qr, status, err := s.filteredThicket(r, "/api/profiles")
	if err != nil {
		return errPayload(status, err)
	}
	if qr.planOnly {
		return qr.planPayload()
	}
	return qr.done(map[string]any{
		"count": qr.th.NumProfiles(),
		"total": qr.stats.Rows,
		"rows":  rows{qr.th.Metadata},
	})
}

// splitArg parses a comma-separated query parameter.
func splitArg(r *http.Request, name string) []string {
	raw := strings.TrimSpace(r.URL.Query().Get(name))
	if raw == "" {
		return nil
	}
	var out []string
	for _, s := range strings.Split(raw, ",") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}

func colKeys(names []string) []dataframe.ColKey {
	var out []dataframe.ColKey
	for _, n := range names {
		out = append(out, dataframe.ColKey{n})
	}
	return out
}

func (s *Server) statsResponse(r *http.Request) (int, any) {
	aggs := splitArg(r, "aggs")
	if len(aggs) == 0 {
		aggs = []string{"mean", "std"}
	}
	qr, status, ferr := s.filteredThicket(r, "/api/stats")
	if ferr != nil {
		return errPayload(status, ferr)
	}
	if qr.planOnly {
		return qr.planPayload()
	}
	// AggregateStats writes only its receiver's stats table; give it its
	// own, so concurrent requests stay isolated without copying the rest.
	th := qr.th.StatsCopy()
	if err := th.AggregateStats(colKeys(splitArg(r, "metrics")), aggs); err != nil {
		return errPayload(http.StatusBadRequest, err)
	}
	return qr.done(map[string]any{
		"count": th.Stats.NRows(),
		"rows":  rows{th.Stats},
	})
}

func (s *Server) groupByResponse(r *http.Request) (int, any) {
	by := splitArg(r, "by")
	if len(by) == 0 {
		return errPayload(http.StatusBadRequest, fmt.Errorf("missing ?by=col1,col2"))
	}
	aggs := splitArg(r, "aggs")
	if len(aggs) == 0 {
		aggs = []string{"mean", "std"}
	}
	qr, status, ferr := s.filteredThicket(r, "/api/groupby")
	if ferr != nil {
		return errPayload(status, ferr)
	}
	if qr.planOnly {
		return qr.planPayload()
	}
	out, err := qr.th.GroupedStats(by, colKeys(splitArg(r, "metrics")), aggs)
	if err != nil {
		return errPayload(http.StatusBadRequest, err)
	}
	return qr.done(map[string]any{
		"count": out.NRows(),
		"rows":  rows{out},
	})
}

func (s *Server) summaryResponse(r *http.Request) (int, any) {
	by := splitArg(r, "by")
	if len(by) == 0 {
		return errPayload(http.StatusBadRequest, fmt.Errorf("missing ?by=col1,col2"))
	}
	qr, status, ferr := s.filteredThicket(r, "/api/summary")
	if ferr != nil {
		return errPayload(status, ferr)
	}
	if qr.planOnly {
		return qr.planPayload()
	}
	sum, err := qr.th.MetadataSummary(by...)
	if err != nil {
		return errPayload(http.StatusBadRequest, err)
	}
	return qr.done(map[string]any{
		"count": sum.NRows(),
		"rows":  rows{sum},
	})
}

func (s *Server) queryResponse(r *http.Request) (int, any) {
	q := r.URL.Query().Get("q")
	if q == "" {
		return errPayload(http.StatusBadRequest, fmt.Errorf("missing ?q=<call-path query>"))
	}
	qr, status, ferr := s.filteredThicket(r, "/api/query")
	if ferr != nil {
		return errPayload(status, ferr)
	}
	if qr.planOnly {
		return qr.planPayload()
	}
	out, err := qr.th.QueryString(q)
	if err != nil {
		return errPayload(http.StatusBadRequest, err)
	}
	return qr.done(map[string]any{
		"kept":  out.Tree.Len(),
		"total": qr.th.Tree.Len(),
		"nodes": out.NodePaths(),
	})
}

func (s *Server) treeResponse(r *http.Request) (int, any) {
	th := s.thicket()
	metric := r.URL.Query().Get("metric")
	var rendered string
	if metric == "" {
		rendered = th.Tree.Render(nil)
	} else {
		if _, err := th.PerfData.Column(dataframe.ColKey{metric}); err != nil {
			return errPayload(http.StatusBadRequest, err)
		}
		rendered = th.TreeString(dataframe.ColKey{metric})
	}
	return http.StatusOK, map[string]any{
		"metric": metric,
		"tree":   rendered,
	}
}
