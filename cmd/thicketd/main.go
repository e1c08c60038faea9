// Command thicketd serves a columnar ensemble store over HTTP: it opens
// the store once, keeps the decoded ensemble warm, and answers EDA
// queries as JSON until interrupted (SIGINT/SIGTERM trigger a graceful
// drain that also flushes every observability sink).
//
// Usage:
//
//	thicketd -store ensemble.tks [-addr :8080] [-timeout 15s] [-max-concurrent 64]
//	         [-slow-query 1s] [-debug-addr :6060] [-trace-out trace.json]
//	         [-trace-sample 1.0] [-self-profile-store self.tks]
//	         [-log-level info] [-inject-latency /api/stats=50ms]
//	         [-ingest] [-ingest-wal path] [-ingest-queue 256] [-ingest-flush 16]
//	         [-ingest-compact-run 4] [-ingest-sync batch]
//	         [-monitor-interval 10s] [-monitor-ring 720] [-monitor-store monitor.tks]
//	         [-alert-rules rules.json]
//
// Endpoints:
//
//	GET /healthz                          liveness + request counters
//	GET /metrics                          Prometheus text metrics
//	GET /api/info                         ensemble + store shape
//	GET /api/profiles?where=col=value     metadata listing with predicates (=, !=, <, >, <=, >=)
//	GET /api/stats?metrics=a,b&aggs=mean  aggregated per-node statistics
//	GET /api/groupby?by=col&metrics=a     per-group aggregated statistics
//	GET /api/summary?by=col               campaign summary
//	GET /api/query?q=<call-path DSL>      call-path query, kept node paths
//	GET /api/tree?metric=a                rendered call tree
//	POST /ingest                          stream one profile into the store (-ingest; 429 = backpressure)
//	GET /debug/traces?n=32                retained (sampled) traces with retention reasons
//	GET /debug/queries                    in-flight queries: stage, blocks read, elapsed
//	DELETE /debug/queries/{id}            cancel one in-flight query mid-scan
//	GET /debug/querylog?n=32              recent completed queries with their plan trees
//	GET /debug/monitor?window=5m          self-monitoring ring: windowed metric series (&metrics= filters)
//	GET /debug/alerts                     alert rules, firing states, latency baselines, recent transitions
//
// Continuous self-monitoring runs by default (-monitor-interval < 0
// disables it): every interval the sampler snapshots the telemetry
// registry and the Go runtime (heap, GC pauses, goroutines, scheduler
// latency) into a bounded ring served at /debug/monitor, derives
// per-second rates from counters, and evaluates declarative alert
// rules — threshold, rate-of-change, absence, latency baseline — whose
// firing/resolved states appear at /debug/alerts, on /metrics
// (thicket_monitor_alerts_total{rule}), and in the structured log. The
// baseline rules keep a rolling EWMA of every endpoint's and span's
// interval mean latency and fire per target on a regression.
// -alert-rules replaces the shipped rule set (heap growth, GC pause
// p99, goroutine leak, ingest-queue saturation, cache hit-rate
// collapse, endpoint and span latency baselines) with a JSON file.
// With -monitor-store, every sample streams as one profile into a
// dedicated directory store that `thicket query/stats` and thicketd
// itself can analyze — the service's own operational history as an
// ensemble. `thicket monitor -target` renders the ring as a live
// top-like table. -monitor-store and -self-profile-store are both
// written on the monitor's tick, so with -monitor-interval < 0 either
// fails at startup.
//
// Every analytical endpoint accepts explain=plan (prune verdicts from
// headers alone, nothing executes) and explain=analyze (execute and
// attach the measured plan tree to the response). -timeout bounds
// every request: past it the client gets a 503 and the request context
// is canceled, so a scan stops at the next block boundary and
// /debug/querylog records the cancellation.
//
// With -ingest, profiles POSTed to /ingest are acked once durable in a
// write-ahead log, flushed to small level-0 segments, and merged into
// sorted higher-level segments by a background compactor; a full
// admission queue sheds with 429 + Retry-After rather than stalling
// query traffic. The store must use the directory layout (thicket store
// create, thicket ingest -init or CreateDirStore): a single-file store is
// written once, and -ingest on one fails at startup.
//
// Observability: requests accept and emit W3C traceparent headers, and
// every log line is one JSON object carrying the request's trace ID.
// -trace-out / -self-profile-store enable span collection; -trace-sample
// keeps that fraction of traces (head sampling) while traces the
// monitor's latency-baseline rules judge slow are always retained (with
// -monitor-interval < 0 only head sampling keeps traces).
// -self-profile-store streams each retained slow request trace into a
// dedicated directory store that thicket query and thicketd can analyze
// — the server's own performance forest: every monitor tick drains the
// slow traces retained since the last one, and shutdown drains once
// more. Both self-data stores take the -ingest path: a profile is
// durable in the store's WAL once written, and a single-file store,
// which is written once, is refused. On shutdown (including
// SIGINT/SIGTERM) -trace-out receives every retained span tree as
// Chrome trace_event JSON plus a native thicket profile, and the
// self-profile store receives the last slow traces — the trace tail is
// never dropped.
// -debug-addr starts a second listener with net/http/pprof.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	thicket "repro"
)

// config collects every flag so serve is testable without a real
// command line.
type config struct {
	storePath  string
	addr       string
	timeout    time.Duration
	maxConc    int
	cacheBytes int64
	slowQuery  time.Duration
	debugAddr  string
	traceOut   string

	traceSample     float64
	selfProfilePath string
	injectLatency   string
	logLevel        string

	ingestEnabled bool
	ingestWAL     string
	ingestQueue   int
	ingestFlush   int
	ingestCompact int
	ingestSync    string

	monitorInterval time.Duration
	monitorRing     int
	monitorStore    string
	alertRulesPath  string
	injectLeak      int
}

func main() {
	var cfg config
	flag.StringVar(&cfg.storePath, "store", "", "path of the ensemble store, a directory store or a single-file one (required; -ingest needs a directory store)")
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.DurationVar(&cfg.timeout, "timeout", 15*time.Second, "per-request timeout: answer 503 and cancel the request, so a scan stops at the next block boundary")
	flag.IntVar(&cfg.maxConc, "max-concurrent", 64, "maximum concurrently executing requests")
	flag.Int64Var(&cfg.cacheBytes, "cache-bytes", 0, "response cache budget in bytes (0 = 16 MiB default, negative disables)")
	flag.DurationVar(&cfg.slowQuery, "slow-query", time.Second, "slow-request log threshold (negative disables)")
	flag.StringVar(&cfg.debugAddr, "debug-addr", "", "optional second listener with /debug/pprof/ and process-wide /metrics")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "enable span collection; on shutdown write Chrome trace_event JSON here plus a native .profile.json")
	flag.Float64Var(&cfg.traceSample, "trace-sample", 1.0, "head-sampling probability in [0,1]; traces slower than their latency baseline are always kept")
	flag.StringVar(&cfg.selfProfilePath, "self-profile-store", "", "enable span collection and stream retained slow traces into this directory store, drained on every monitor tick (needs the monitor)")
	flag.StringVar(&cfg.injectLatency, "inject-latency", "", "artificial endpoint delays for regression demos, e.g. /api/stats=50ms; an @onset (e.g. /api/stats=50ms@8s) arms the delay after the baseline has warmed")
	flag.StringVar(&cfg.logLevel, "log-level", "info", "structured-log level: debug, info, warn, error")
	flag.BoolVar(&cfg.ingestEnabled, "ingest", false, "enable POST /ingest: stream profiles into the store through a write-ahead log")
	flag.StringVar(&cfg.ingestWAL, "ingest-wal", "", "write-ahead log path (default <store>.wal)")
	flag.IntVar(&cfg.ingestQueue, "ingest-queue", 0, "ingest admission-queue depth; beyond it submissions shed with 429 (0 selects 256)")
	flag.IntVar(&cfg.ingestFlush, "ingest-flush", 0, "profiles per level-0 segment flush (0 selects 16)")
	flag.IntVar(&cfg.ingestCompact, "ingest-compact-run", 0, "adjacent same-level segments merged per compaction (0 selects 4, negative disables)")
	flag.StringVar(&cfg.ingestSync, "ingest-sync", "batch", "WAL fsync policy: batch (group commit), always, none")
	flag.DurationVar(&cfg.monitorInterval, "monitor-interval", 10*time.Second, "self-monitoring sample interval, also the latency-baseline window and the -self-profile-store drain interval (negative disables the monitor and its alerts, and with them tail retention of slow traces: only -trace-sample head sampling keeps traces, and -monitor-store or -self-profile-store fails at startup)")
	flag.IntVar(&cfg.monitorRing, "monitor-ring", 0, "samples retained in the monitor ring (0 selects 720)")
	flag.StringVar(&cfg.monitorStore, "monitor-store", "", "stream monitor samples into this directory store (one profile per sample, queryable via thicket query/stats or thicketd; needs the monitor)")
	flag.StringVar(&cfg.alertRulesPath, "alert-rules", "", "JSON alert-rules file (default: the shipped heap/GC/goroutine/ingest/cache/latency-baseline rule set)")
	flag.IntVar(&cfg.injectLeak, "inject-leak", 0, "retain this many bytes of heap per monitor tick — the demo hook behind the heap-growth alert")
	flag.Parse()
	if cfg.storePath == "" {
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := serve(ctx, cfg, os.Stdout); err != nil {
		log.Fatalf("thicketd: %v", err)
	}
}

// parseLevel maps the -log-level flag onto a slog level.
func parseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("bad -log-level %q (want debug, info, warn, or error)", s)
}

// injectSpec is one parsed -inject-latency entry. A zero After starts
// the delay immediately; a positive After arms it that long into the
// run, after the endpoint's baseline has warmed on honest latencies —
// an injection live from t=0 IS the baseline and the latency-baseline
// rule rightly stays quiet.
type injectSpec struct {
	delay time.Duration
	after time.Duration
}

// parseInjectLatency parses "/api/stats=50ms,/api/query=10ms@8s".
func parseInjectLatency(s string) (map[string]injectSpec, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	out := map[string]injectSpec{}
	for _, part := range strings.Split(s, ",") {
		path, raw, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || path == "" {
			return nil, fmt.Errorf("bad -inject-latency entry %q (want /path=duration[@after])", part)
		}
		var spec injectSpec
		durRaw, afterRaw, hasOnset := strings.Cut(raw, "@")
		if hasOnset {
			a, err := time.ParseDuration(afterRaw)
			if err != nil {
				return nil, fmt.Errorf("bad -inject-latency onset in %q: %v", part, err)
			}
			spec.after = a
		}
		d, err := time.ParseDuration(durRaw)
		if err != nil {
			return nil, fmt.Errorf("bad -inject-latency entry %q: %v", part, err)
		}
		spec.delay = d
		out[path] = spec
	}
	return out, nil
}

func serve(ctx context.Context, cfg config, out io.Writer) (err error) {
	level, err := parseLevel(cfg.logLevel)
	if err != nil {
		return err
	}
	inject, err := parseInjectLatency(cfg.injectLatency)
	if err != nil {
		return err
	}
	if cfg.traceSample < 0 || cfg.traceSample > 1 {
		return fmt.Errorf("-trace-sample %v out of [0,1]", cfg.traceSample)
	}
	// Both self-data stores are written on the monitor's tick.
	if cfg.monitorInterval < 0 {
		switch {
		case cfg.monitorStore != "":
			return fmt.Errorf("-monitor-store needs the monitor, which -monitor-interval %v disables", cfg.monitorInterval)
		case cfg.selfProfilePath != "":
			return fmt.Errorf("-self-profile-store needs the monitor, which -monitor-interval %v disables", cfg.monitorInterval)
		}
	}
	logger := thicket.NewJSONLogger(out, level)
	dlog := logger.With("component", "thicketd")
	thicket.SetStoreLogger(logger)
	defer thicket.SetStoreLogger(nil)

	// Self-data (monitor samples, slow traces) carries the server's identity.
	selfMeta := map[string]thicket.Value{
		"served_store": thicket.Str(cfg.storePath),
		"addr":         thicket.Str(cfg.addr),
	}

	// Span collection. The collector is built before the monitor, which
	// makes its latency baselines the collector's tail-sampling judge,
	// and installed after it.
	var col *thicket.TraceCollector
	if cfg.traceOut != "" || cfg.selfProfilePath != "" {
		col = &thicket.TraceCollector{Policy: &thicket.TracePolicy{HeadProbability: cfg.traceSample}}
	}

	// Continuous self-monitoring: every interval the sampler snapshots
	// the registry + Go runtime into the ring, evaluates the alert
	// rules, streams the sample into -monitor-store and drains the slow
	// traces retained since the last tick into -self-profile-store.
	// Shutdown takes a final sample and drains once more, so the
	// incident that killed the process is in both stores.
	var mon *thicket.Monitor
	if cfg.monitorInterval >= 0 {
		rules := thicket.DefaultAlertRules()
		if cfg.alertRulesPath != "" {
			rules, err = thicket.LoadAlertRules(cfg.alertRulesPath)
			if err != nil {
				return err
			}
		}
		mon, err = thicket.NewMonitor(thicket.MonitorOptions{
			Interval: cfg.monitorInterval,
			RingSize: cfg.monitorRing,
			Registry: thicket.DefaultMetrics(),
			Rules:    rules,
			Logger:   logger,
			Traces:   col,
			History: thicket.MonitorHistoryOptions{
				StorePath:      cfg.monitorStore,
				TraceStorePath: cfg.selfProfilePath,
				Meta:           selfMeta,
			},
		})
		if err != nil {
			return err
		}
		if cfg.injectLeak > 0 {
			mon.SetInjectedLeak(cfg.injectLeak)
			dlog.Warn("injected heap leak armed", "bytes_per_tick", cfg.injectLeak)
		}
		monCtx, monCancel := context.WithCancel(context.Background())
		monDone := make(chan struct{})
		go func() { defer close(monDone); mon.Run(monCtx) }()
		defer func() {
			monCancel()
			<-monDone
			if cerr := mon.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		dlog.Info("self-monitoring enabled",
			"interval", mon.Interval().String(), "rules", len(rules),
			"history", cfg.monitorStore)
		if cfg.selfProfilePath != "" {
			dlog.Info("self-profiling enabled", "path", cfg.selfProfilePath)
		}
	}

	// Enable telemetry before the store loads so the load itself is the
	// first span tree in the trace.
	if col != nil {
		thicket.EnableTelemetry(true)
		prev := thicket.SetTraceCollector(col)
		defer thicket.SetTraceCollector(prev)
	}
	// Flush the trace file on EVERY exit path — error returns included —
	// so SIGTERM (or a late failure) never drops the trace tail. The
	// defer runs before the collector is uninstalled (LIFO).
	if cfg.traceOut != "" {
		defer func() {
			if eerr := exportTrace(cfg.traceOut, col, dlog); eerr != nil && err == nil {
				err = eerr
			}
		}()
	}

	st, err := thicket.OpenStore(cfg.storePath)
	if err != nil {
		return err
	}
	defer st.Close()
	th, err := st.Load()
	if err != nil {
		return err
	}

	// Streaming ingest: the WAL replays any crash remnant before the
	// server takes traffic, and Close drains the queue on shutdown so
	// every acked profile lands in a segment.
	var ing *thicket.Ingester
	if cfg.ingestEnabled {
		sync, serr := thicket.ParseIngestSyncPolicy(cfg.ingestSync)
		if serr != nil {
			return serr
		}
		ing, err = thicket.NewIngester(st, thicket.IngestOptions{
			WALPath:       cfg.ingestWAL,
			QueueDepth:    cfg.ingestQueue,
			FlushProfiles: cfg.ingestFlush,
			CompactRun:    cfg.ingestCompact,
			Sync:          sync,
			Registry:      thicket.DefaultMetrics(),
			Logger:        logger,
		})
		if err != nil {
			return err
		}
		defer func() {
			if cerr := ing.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		dlog.Info("ingest enabled", "wal", ing.WALPath(), "sync", cfg.ingestSync)
	}

	serverOpts := thicket.ServerOptions{
		MaxConcurrent: cfg.maxConc,
		Timeout:       cfg.timeout,
		CacheBytes:    cfg.cacheBytes,
		SlowQuery:     cfg.slowQuery,
		Logger:        logger,
		Trace:         col,
		// The process-wide registry: /metrics merges the server's HTTP
		// metrics with kernel, store, and span-duration metrics.
		Registry: thicket.DefaultMetrics(),
	}
	if ing != nil {
		serverOpts.Ingest = ing
	}
	if mon != nil {
		serverOpts.Monitor = mon
	}
	srv := thicket.NewServer(th, st, serverOpts)
	// Immediate injections apply before serving. Delayed ones arm after
	// the endpoint's baseline has warmed on honest latencies, so the
	// latency-baseline demo flags a real regression.
	for path, spec := range inject {
		if spec.after <= 0 {
			srv.SetInjectedLatency(path, spec.delay)
			continue
		}
		tm := time.AfterFunc(spec.after, func() {
			srv.SetInjectedLatency(path, spec.delay)
			dlog.Warn("injected latency armed",
				"endpoint", path, "delay", spec.delay.String())
		})
		defer tm.Stop()
	}
	if cfg.debugAddr != "" {
		dbg := debugServer(cfg.debugAddr)
		defer dbg.Close()
		go dbg.ListenAndServe()
		dlog.Info("pprof + metrics listener", "addr", cfg.debugAddr)
	}
	dlog.Info("serving",
		"profiles", th.NumProfiles(), "nodes", th.Tree.Len(),
		"store", cfg.storePath, "addr", cfg.addr)
	if err := srv.Serve(ctx, cfg.addr); err != nil {
		return err
	}
	dlog.Info("shut down", "requests", srv.Requests())
	return nil
}

// debugServer builds the optional diagnostics listener: net/http/pprof
// handlers plus the process-wide Prometheus metrics. Kept off the main
// mux so production query traffic and profiling endpoints can be
// firewalled separately.
func debugServer(addr string) *http.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		thicket.DefaultMetrics().WritePrometheus(w)
	})
	return &http.Server{Addr: addr, Handler: mux}
}

// exportTrace writes the collected span trees as Chrome trace_event JSON
// and as a native thicket profile.
func exportTrace(path string, col *thicket.TraceCollector, dlog *slog.Logger) error {
	trees := col.Roots()
	if len(trees) == 0 {
		dlog.Info("no spans collected; trace not written", "path", path)
		return nil
	}
	profilePath, err := thicket.SaveTrace(path, trees)
	if err != nil {
		return err
	}
	if n := col.Dropped(); n > 0 {
		dlog.Warn("trace retention bound dropped oldest trees", "dropped", n)
	}
	dlog.Info("wrote trace",
		"trees", len(trees), "trace", path, "profile", profilePath)
	return nil
}
