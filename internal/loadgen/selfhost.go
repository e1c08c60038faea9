package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/monitor"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// Regression is a parsed -regress entry: Delay is injected into Path's
// handler once the replay's virtual clock passes Onset. A positive
// Onset lets the endpoint's baseline warm on honest latencies first, so
// the latency-baseline rule flags a real regression instead of learning
// the slow behaviour as normal.
type Regression struct {
	Path  string        `json:"path"`
	Delay time.Duration `json:"delay_ns"`
	Onset time.Duration `json:"onset_ns"`
}

// ParseRegress parses "/api/stats=30ms@2s" (the @onset is optional and
// defaults to 0 — injected from the first request).
func ParseRegress(s string) (*Regression, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	path, raw, ok := strings.Cut(s, "=")
	if !ok || path == "" || !strings.HasPrefix(path, "/") {
		return nil, fmt.Errorf("loadgen: bad -regress %q (want /path=duration[@onset])", s)
	}
	r := &Regression{Path: path}
	durRaw, onsetRaw, hasOnset := strings.Cut(raw, "@")
	d, err := time.ParseDuration(durRaw)
	if err != nil || d <= 0 {
		return nil, fmt.Errorf("loadgen: bad -regress delay in %q", s)
	}
	r.Delay = d
	if hasOnset {
		o, err := time.ParseDuration(onsetRaw)
		if err != nil || o < 0 {
			return nil, fmt.Errorf("loadgen: bad -regress onset in %q", s)
		}
		r.Onset = o
	}
	return r, nil
}

// SelfHostOptions configures an in-process thicketd under test.
type SelfHostOptions struct {
	// StorePath serves an existing directory store, which the self-host
	// ingests into; empty builds a synthetic MARBL ensemble store under
	// ScratchDir.
	StorePath string
	// ScratchDir holds the synthetic store and the self-profile store
	// (typically a temp dir; required when StorePath is empty).
	ScratchDir string
	// Seed feeds the synthetic ensemble and the ingest profile stream.
	Seed          int64
	MaxConcurrent int
	// SelfProfilePath overrides ScratchDir/self.tks.
	SelfProfilePath string
	Logger          *slog.Logger
	// Ingest configures the streaming-ingest pipeline behind the
	// server's POST /ingest endpoint (queue depth, flush cadence,
	// compaction run length). The zero value selects the ingester's
	// defaults.
	Ingest ingest.Options
	// MonitorRules overrides the self-monitor's alert rules (nil selects
	// selfHostRules; an explicit empty slice disables alerting). The
	// determinism tests pass fixed rules here.
	MonitorRules []monitor.Rule
}

// Self-host alerting. The monitor ticks once per selfHostTick of the
// replay's virtual clock, which is also the latency-baseline window.
// The baseline rules are thicketd's with deliberately less
// trigger-happy thresholds: CI machines jitter at the scale of the
// µs-level loopback baselines this harness produces, and the
// closed-loop contract is "a clean run stays quiet". So a regression
// must clear 5σ and 3× the baseline over intervals of at least 10
// requests, and an absolute 5ms floor: loopback baselines sit far below
// the OS noise floor (GC pauses, scheduler stalls), while any injected
// regression worth the name (tens of ms over a µs baseline) clears the
// floor by an order of magnitude.
const (
	selfHostTick       = time.Second
	selfHostSigma      = 5
	selfHostFactor     = 3
	selfHostMinSamples = 10
	selfHostMinDeltaS  = 0.005
)

// selfHostRules is monitor.DefaultRules with the baseline rules at the
// self-host thresholds.
func selfHostRules() []monitor.Rule {
	rules := monitor.DefaultRules()
	for i := range rules {
		if rules[i].Kind == monitor.KindBaseline {
			rules[i].Value = selfHostSigma
			rules[i].Factor = selfHostFactor
			rules[i].MinSamples = selfHostMinSamples
			rules[i].MinDeltaS = selfHostMinDeltaS
		}
	}
	return rules
}

// SelfHost is a live in-process thicketd wired for closed-loop load
// testing: a private metrics registry, a self-monitor ticked by the
// replay's virtual clock whose latency-baseline rules flag regressions,
// and a trace collector whose tail sampler is the monitor's IsSlow; each
// tick drains the retained slow traces into the self-profile store.
// Always Close it — installing the collector mutates process-global
// telemetry state that Close restores.
type SelfHost struct {
	URL       string
	Server    *server.Server
	Collector *telemetry.Collector
	Registry  *telemetry.Registry
	Monitor   *monitor.Sampler

	opts     SelfHostOptions
	st       *store.Store
	ing      *ingest.Ingester
	client   *http.Client
	ln       net.Listener
	httpSrv  *http.Server
	ingestMu sync.Mutex
	ingestN  int
	prevCol  *telemetry.Collector
	prevOn   bool
	closed   bool
}

func (o SelfHostOptions) withDefaults() SelfHostOptions {
	if o.MonitorRules == nil {
		o.MonitorRules = selfHostRules()
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.DiscardHandler)
	}
	return o
}

// synthStore writes a small synthetic MARBL ensemble to a directory
// store under dir, the layout the ingest pipeline appends to and
// compacts.
func synthStore(dir string, seed int64) (string, error) {
	profiles, err := sim.MarblEnsemble(
		[]sim.MarblCluster{sim.ClusterRZTopaz, sim.ClusterAWS}, []int{1, 2, 4}, 2, seed)
	if err != nil {
		return "", err
	}
	th, err := core.FromProfiles(profiles, core.Options{})
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "ensemble.tks")
	if err := store.CreateDir(path, th); err != nil {
		return "", err
	}
	return path, nil
}

// StartSelfHost assembles the in-process thicketd and starts its
// listener on a loopback port.
func StartSelfHost(opts SelfHostOptions) (*SelfHost, error) {
	opts = opts.withDefaults()
	if opts.SelfProfilePath == "" {
		if opts.ScratchDir == "" {
			return nil, fmt.Errorf("loadgen: selfhost needs SelfProfilePath or ScratchDir")
		}
		opts.SelfProfilePath = filepath.Join(opts.ScratchDir, "self.tks")
	}
	storePath := opts.StorePath
	if storePath == "" {
		if opts.ScratchDir == "" {
			return nil, fmt.Errorf("loadgen: selfhost needs StorePath or ScratchDir")
		}
		var err error
		if storePath, err = synthStore(opts.ScratchDir, opts.Seed); err != nil {
			return nil, err
		}
	}
	st, err := store.Open(storePath)
	if err != nil {
		return nil, err
	}
	th, err := st.Load()
	if err != nil {
		st.Close()
		return nil, err
	}

	reg := telemetry.NewRegistry()
	// Tail-only: retain exactly the traces the monitor judges slow.
	col := &telemetry.Collector{Policy: &telemetry.Policy{HeadProbability: 0}}
	// The self-monitor samples on the replay's virtual clock (Target
	// ticks it), so same-seed runs observe identical sample instants.
	mon, err := monitor.New(monitor.Options{
		Interval: selfHostTick,
		Registry: reg,
		Rules:    opts.MonitorRules,
		Logger:   opts.Logger,
		Traces:   col,
		History:  monitor.HistoryOptions{TraceStorePath: opts.SelfProfilePath},
	})
	if err != nil {
		st.Close()
		return nil, err
	}

	iopts := opts.Ingest
	if iopts.Registry == nil {
		iopts.Registry = reg
	}
	if iopts.Logger == nil {
		iopts.Logger = opts.Logger
	}
	ing, err := ingest.New(st, iopts)
	if err != nil {
		mon.Close()
		st.Close()
		return nil, err
	}

	srv := server.New(th, st, server.Options{
		MaxConcurrent: opts.MaxConcurrent,
		Registry:      reg,
		Logger:        opts.Logger,
		Trace:         col,
		SlowQuery:     -1, // loadgen floods would spam the slow log
		Ingest:        ing,
		Monitor:       mon,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ing.Close()
		mon.Close()
		st.Close()
		return nil, err
	}
	h := &SelfHost{
		URL:       "http://" + ln.Addr().String(),
		Server:    srv,
		Collector: col,
		Registry:  reg,
		Monitor:   mon,
		opts:      opts,
		st:        st,
		ing:       ing,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        16,
			MaxIdleConnsPerHost: 16,
		}},
		ln: ln,
		// The timeouts reap connections that never carry a request
		// (transport dial-race spares); Shutdown would otherwise wait on
		// them as potentially active.
		httpSrv: &http.Server{
			Handler:           srv.Handler(),
			ReadHeaderTimeout: 2 * time.Second,
			IdleTimeout:       2 * time.Second,
		},
	}
	h.prevOn = telemetry.SetEnabled(true)
	h.prevCol = telemetry.SetCollector(col)
	go h.httpSrv.Serve(ln)
	return h, nil
}

// Ingest streams one fresh synthetic profile through the real write
// path: serialized and POSTed to the server's /ingest endpoint, through
// admission control, the WAL, and the L0 flush — exactly what an
// external producer exercises. Each call generates a unique profile
// (trial numbers count up from a high base so they never collide with
// the seeded ensemble), so the store's content generation moves and the
// server refreshes its resident thicket under traffic. The returned status lets the replay
// count 429 sheds separately from failures.
func (h *SelfHost) Ingest() (int, error) {
	h.ingestMu.Lock()
	n := h.ingestN
	h.ingestN++
	h.ingestMu.Unlock()
	p, err := sim.GenerateMarbl(sim.MarblConfig{
		Cluster: sim.ClusterRZTopaz,
		Nodes:   1,
		Trial:   100000 + n,
		Seed:    h.opts.Seed,
	})
	if err != nil {
		return 0, err
	}
	payload, err := p.MarshalBytes()
	if err != nil {
		return 0, err
	}
	resp, err := h.client.Post(h.URL+"/ingest", "application/octet-stream", bytes.NewReader(payload))
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// Ingester exposes the pipeline for post-run assertions (backlog,
// forced compaction).
func (h *SelfHost) Ingester() *ingest.Ingester { return h.ing }

// Target wires the self-hosted server into a replay target: requests go
// to the loopback listener, ingest events append to the store, and the
// self-monitor ticks on the virtual clock. A non-nil regress is armed
// at its onset.
func (h *SelfHost) Target(concurrency int, regress *Regression) Target {
	t := Target{
		BaseURL:   h.URL,
		Ingest:    h.Ingest,
		TickEvery: selfHostTick,
		// The monitor gets virtual timestamps (epoch + tick·window) so
		// same-seed runs record identical sample instants.
		OnTick: func(tick int) {
			h.Monitor.Tick(time.Unix(0, 0).Add(time.Duration(tick) * selfHostTick))
		},
		Concurrency: concurrency,
	}
	if regress != nil {
		r := *regress
		t.OnVirtual = []VirtualAction{{At: r.Onset, Do: func() {
			h.Server.SetInjectedLatency(r.Path, r.Delay)
		}}}
	}
	return t
}

// Annotate fills the report's closed-loop fields (anomaly count,
// retained traces, plan efficiency, resource usage from the
// self-monitor) and returns the slow-trace profiles the monitor's ticks
// exported to the self-profile store during the replay.
func (h *SelfHost) Annotate(rep *Report) (exported int, err error) {
	exported = int(h.Registry.Counter("thicket_selfprofile_exported_total", "").Value())
	rep.Measured.Anomalies = baselineFirings(h.Monitor.Alerts())
	rep.Measured.RetainedTraces = h.Collector.Len()
	if pe, perr := h.planEfficiency(); perr == nil {
		rep.Measured.Plan = pe
	} else {
		err = perr
	}
	if rs, rerr := h.resourceSummary(); rerr == nil {
		rep.Measured.Resources = rs
	} else if err == nil {
		err = rerr
	}
	return exported, err
}

// baselineFirings counts the firing transitions of the latency-baseline
// rules: each is one regression flagged on one target.
func baselineFirings(a monitor.AlertsSnapshot) int {
	n := 0
	for _, r := range a.Rules {
		if r.Kind == monitor.KindBaseline {
			n += int(r.FiredTotal)
		}
	}
	return n
}

// resourceSummary scrapes the run's runtime-resource footprint from the
// live /debug/monitor and /debug/alerts endpoints — the same surface an
// operator reads — and folds the whole ring into a report section.
func (h *SelfHost) resourceSummary() (*ResourceSummary, error) {
	var win monitor.WindowSnapshot
	if err := h.getJSON("/debug/monitor", &win); err != nil {
		return nil, err
	}
	var alerts monitor.AlertsSnapshot
	if err := h.getJSON("/debug/alerts", &alerts); err != nil {
		return nil, err
	}
	rs := &ResourceSummary{Samples: win.Samples}
	if s, ok := win.Series[monitor.SeriesHeapInuse]; ok {
		rs.PeakHeapBytes = int64(s.Max)
	}
	if s, ok := win.Series[monitor.SeriesGoroutines]; ok {
		rs.MaxGoroutines = int(s.Max)
	}
	// The pause series is cumulative since process start; the run's
	// share is last − first over the ring.
	if s, ok := win.Series[monitor.SeriesGCPauseTotal]; ok && len(s.Points) > 0 {
		rs.GCPauseTotalS = s.Last - s.Points[0].Value
	}
	if s, ok := win.Series[monitor.SeriesGCCPUFraction]; ok {
		rs.GCCPUMeanPct = 100 * s.Mean
	}
	for _, tr := range alerts.Transitions {
		if tr.Firing {
			rs.AlertsFired++
		}
	}
	rs.AlertsFiring = alerts.Firing
	return rs, nil
}

// getJSON fetches path from the self-hosted server and decodes it.
func (h *SelfHost) getJSON(path string, out any) error {
	resp, err := h.client.Get(h.URL + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("loadgen: %s answered %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("loadgen: %s: %w", path, err)
	}
	return nil
}

// planEfficiency scrapes the run's aggregate plan accounting from the
// live /debug/querylog endpoint — the same surface an operator reads —
// and derives the skip/prune percentages.
func (h *SelfHost) planEfficiency() (*PlanEfficiency, error) {
	resp, err := h.client.Get(h.URL + "/debug/querylog?n=0")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("loadgen: /debug/querylog answered %d", resp.StatusCode)
	}
	var body struct {
		Totals server.QueryLogTotals `json:"totals"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("loadgen: /debug/querylog: %w", err)
	}
	t := body.Totals
	pe := &PlanEfficiency{
		Queries:          t.Queries,
		Canceled:         t.Canceled,
		TimedOut:         t.TimedOut,
		Segments:         t.Segments,
		SegmentsPruned:   t.SegmentsPruned,
		BlocksScanned:    t.BlocksScanned,
		BlocksSkipped:    t.BlocksSkipped,
		RowsMaterialized: t.RowsMaterialized,
	}
	if t.Segments > 0 {
		pe.SegmentsPrunedPct = 100 * float64(t.SegmentsPruned) / float64(t.Segments)
	}
	if total := t.BlocksScanned + t.BlocksSkipped; total > 0 {
		pe.BlocksSkippedPct = 100 * float64(t.BlocksSkipped) / float64(total)
	}
	return pe, nil
}

// SelfProfilePath reports where retained slow traces are exported.
func (h *SelfHost) SelfProfilePath() string { return h.opts.SelfProfilePath }

// Close stops the listener, closes the monitor, which drains the slow
// traces no tick took, and the store, and restores the process-global
// telemetry state. Safe to call once.
func (h *SelfHost) Close() error {
	if h.closed {
		return nil
	}
	h.closed = true
	h.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := h.httpSrv.Shutdown(ctx)
	telemetry.SetCollector(h.prevCol)
	telemetry.SetEnabled(h.prevOn)
	// The ingester drains its queue and flushes before the store closes.
	if cerr := h.ing.Close(); err == nil {
		err = cerr
	}
	if cerr := h.Monitor.Close(); err == nil {
		err = cerr
	}
	if cerr := h.st.Close(); err == nil {
		err = cerr
	}
	return err
}
