// Package monitor is thicketd's continuous self-monitoring subsystem.
// One sampler tick drives four layers: (1) a snapshot of the telemetry
// registry and the Go runtime (runtime/metrics) into a bounded
// timestamped ring, with counter→rate derivation guarded against
// resets; (2) the /debug/monitor windowed-series endpoint and the
// `thicket monitor` CLI that reads it; (3) a declarative rules engine
// (threshold, rate-of-change, absence, and per-series latency
// baselines) whose firing/resolved states surface at /debug/alerts, on
// /metrics, and as slog events; and
// (4) a history flusher that periodically appends ring samples to a
// dedicated ensemble store — one profile per interval, metrics as
// columns — so the service's own operation is queryable through the
// ordinary `thicket query/stats/serve` path.
//
// The sampler is clock-injectable: thicketd runs it on a wall-clock
// ticker (Run), while the loadgen self-host target ticks it at virtual
// timestamps so same-seed runs sample identical instants.
package monitor

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Default knobs.
const (
	DefaultInterval = 10 * time.Second
	DefaultRingSize = 720 // 2h of history at the default interval
)

// RateSuffix marks series the sampler derives from cumulative
// counters: `<counter>:rate` is the per-second increase over the last
// tick interval, clamped at zero across resets.
const RateSuffix = ":rate"

// Sample is one ring entry: every metric visible at one instant.
type Sample struct {
	UnixNS int64
	Values map[string]float64
}

// Options configures a Sampler.
type Options struct {
	// Interval paces Run. 0 selects DefaultInterval.
	Interval time.Duration
	// RingSize bounds the history ring. 0 selects DefaultRingSize.
	RingSize int
	// Registry is both the snapshot source and where the monitor's own
	// counters live. Nil selects telemetry.Default.
	Registry *telemetry.Registry
	// Rules are the alert rules evaluated on each tick. Nil selects
	// DefaultRules(); an explicit empty slice disables alerting.
	Rules []Rule
	// History configures the monitor-store flusher; a zero value (empty
	// StorePath) disables it.
	History HistoryOptions
	// Logger receives alert transitions and flush events. Nil discards.
	Logger *slog.Logger
}

// Sampler owns the ring, the rules engine, and the history flusher.
type Sampler struct {
	opts    Options
	rt      *runtimeSampler
	history *historyWriter

	samplesTotal *telemetry.Counter
	firingGauge  *telemetry.Gauge
	lastSampleTS *telemetry.Gauge
	alertTotals  map[string]*telemetry.Counter

	mu      sync.Mutex
	ring    []Sample // oldest first, len <= RingSize
	ticks   int64
	rules   []*ruleState
	log     []Transition // bounded transition log, oldest first
	prev    prevState
	leak    [][]byte // injected retained allocations (test/demo hook)
	leakPer int

	// baseMu guards the baseline rules' series for IsSlow. A tick
	// writes them holding both locks, so readers may hold either.
	baseMu   sync.Mutex
	byTarget map[string]*seriesBaseline // target -> series (IsSlow lookups)
}

// prevState is the last tick's cumulative values, kept for rate
// derivation. A fresh state (after construction, i.e. after every
// process restart) yields no rates on the first tick rather than a
// bogus rate against zero.
type prevState struct {
	valid    bool
	unixNS   int64
	counters map[string]float64
}

const transitionLogSize = 256

// New validates opts and returns a Sampler. Monitor metrics (sample
// counter, firing gauge, one alerts_total series per rule) register
// eagerly so they appear on /metrics before the first tick.
func New(opts Options) (*Sampler, error) {
	if opts.Interval <= 0 {
		opts.Interval = DefaultInterval
	}
	if opts.RingSize <= 0 {
		opts.RingSize = DefaultRingSize
	}
	if opts.Registry == nil {
		opts.Registry = telemetry.Default
	}
	if opts.Rules == nil {
		opts.Rules = DefaultRules()
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.DiscardHandler)
	}
	opts.Logger = opts.Logger.With(telemetry.LogKeyComponent, "monitor")

	s := &Sampler{
		opts: opts,
		rt:   newRuntimeSampler(),
		samplesTotal: opts.Registry.Counter("thicket_monitor_samples_total",
			"Monitor sampler ticks taken."),
		firingGauge: opts.Registry.Gauge("thicket_monitor_alerts_firing",
			"Alert rules currently in the firing state."),
		lastSampleTS: opts.Registry.Gauge("thicket_monitor_last_sample_timestamp_seconds",
			"Unix time of the monitor's most recent sample."),
		alertTotals: make(map[string]*telemetry.Counter),
		ring:        make([]Sample, 0, opts.RingSize),
		byTarget:    make(map[string]*seriesBaseline),
	}
	for i := range opts.Rules {
		r := opts.Rules[i].withDefaults()
		if err := r.validate(); err != nil {
			return nil, err
		}
		if err := r.checkRing(opts.RingSize); err != nil {
			return nil, err
		}
		if _, dup := s.alertTotals[r.Name]; dup {
			return nil, fmt.Errorf("monitor: duplicate rule name %q", r.Name)
		}
		st := &ruleState{Rule: r}
		if r.Kind == KindBaseline {
			st.series = make(map[string]*seriesBaseline)
		}
		s.rules = append(s.rules, st)
		s.alertTotals[r.Name] = opts.Registry.Counter("thicket_monitor_alerts_total",
			"Alert firing transitions by rule.", "rule", r.Name)
	}
	if opts.History.StorePath != "" {
		s.history = newHistoryWriter(opts.History, opts.Registry, opts.Logger)
	}
	return s, nil
}

// Interval returns the configured sampling interval.
func (s *Sampler) Interval() time.Duration { return s.opts.Interval }

// Run ticks on a wall-clock ticker until ctx is cancelled, then takes
// one final sample and flushes the history tail so shutdown never
// loses the incident that caused it.
func (s *Sampler) Run(ctx context.Context) {
	t := time.NewTicker(s.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			s.Tick(time.Now())
			return
		case now := <-t.C:
			s.Tick(now)
		}
	}
}

// SetInjectedLeak makes every subsequent tick retain bytesPerTick of
// live heap — a deterministic leak for exercising the heap-growth rule
// end to end. 0 releases the retained memory.
func (s *Sampler) SetInjectedLeak(bytesPerTick int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.leakPer = bytesPerTick
	if bytesPerTick <= 0 {
		s.leak = nil
	}
}

// Tick takes one sample at the given instant: snapshot registry +
// runtime into the ring, derive rates against the previous tick,
// evaluate the alert rules (folding each baseline rule's interval into
// its series' baselines), and hand the sample to the history writer.
// The loadgen self-host target calls this with virtual timestamps.
func (s *Sampler) Tick(now time.Time) {
	s.mu.Lock()

	if s.leakPer > 0 {
		s.leak = append(s.leak, make([]byte, s.leakPer))
	}

	s.ticks++
	s.samplesTotal.Inc()
	s.lastSampleTS.Set(now.Unix())

	values := make(map[string]float64, 96)
	s.snapshotRegistry(values, now)
	s.rt.sample(values, now)

	sample := Sample{UnixNS: now.UnixNano(), Values: values}
	if len(s.ring) == s.opts.RingSize {
		copy(s.ring, s.ring[1:])
		s.ring = s.ring[:len(s.ring)-1]
	}
	s.ring = append(s.ring, sample)

	transitions := evalRules(s.rules, s.ring, s.ticks, now.UnixNano())
	transitions = append(transitions, s.evalBaselines(s.ticks, now.UnixNano())...)
	var firingNames []string
	for _, st := range s.rules {
		if firing, _ := st.active(); firing {
			firingNames = append(firingNames, st.Name)
		}
	}
	s.firingGauge.Set(int64(len(firingNames)))
	for _, tr := range transitions {
		if tr.Firing {
			s.alertTotals[tr.Rule].Inc()
		}
		if len(s.log) == transitionLogSize {
			copy(s.log, s.log[1:])
			s.log = s.log[:len(s.log)-1]
		}
		s.log = append(s.log, tr)
	}
	h := s.history
	s.mu.Unlock()

	for _, tr := range transitions {
		state := "resolved"
		if tr.Firing {
			state = "firing"
		}
		s.opts.Logger.Warn("alert "+state,
			"rule", tr.Rule, "target", tr.Target, "value", tr.Value, "tick", tr.Tick)
	}
	if h != nil {
		h.record(sample, firingNames)
	}
}

// snapshotRegistry flattens the registry into the sample: gauges as-is,
// counters both cumulative and as a derived `:rate` series, histogram
// families as `<name>_count` (+rate) and a windowed `<name>_mean_s`.
// Rates only appear from the second tick on, and a counter that moved
// backwards (reset) yields rate 0, never a negative or NaN.
func (s *Sampler) snapshotRegistry(values map[string]float64, now time.Time) {
	snaps := s.opts.Registry.Snapshot()
	counters := make(map[string]float64, len(snaps))
	var hits, misses float64
	hasCache := false
	for _, m := range snaps {
		switch m.Type {
		case "gauge":
			values[m.Name] = m.Value
		case "counter":
			values[m.Name] = m.Value
			counters[m.Name] = m.Value
			switch m.Name {
			case "thicket_response_cache_hits_total":
				hits, hasCache = m.Value, true
			case "thicket_response_cache_misses_total":
				misses, hasCache = m.Value, true
			}
		case "histogram":
			values[m.Name+"_count"] = float64(m.Count)
			counters[m.Name+"_count"] = float64(m.Count)
			counters[m.Name+"_sum"] = m.Sum
		}
	}

	dt := float64(now.UnixNano()-s.prev.unixNS) / 1e9
	if s.prev.valid && dt > 0 {
		for name, cur := range counters {
			prev, ok := s.prev.counters[name]
			if !ok {
				continue // family appeared this tick: no rate yet
			}
			d := cur - prev
			if d < 0 {
				d = 0 // monotonicity guard: reset reads as zero, not negative
			}
			if strings.HasSuffix(name, "_sum") {
				continue // sums only feed the windowed means below
			}
			values[name+RateSuffix] = d / dt
		}
		// Windowed mean seconds per histogram family: Δsum/Δcount.
		for name, curSum := range counters {
			base, ok := strings.CutSuffix(name, "_sum")
			if !ok {
				continue
			}
			prevSum, okS := s.prev.counters[name]
			prevCount, okC := s.prev.counters[base+"_count"]
			if !okS || !okC {
				continue
			}
			dc := counters[base+"_count"] - prevCount
			ds := curSum - prevSum
			if dc > 0 && ds >= 0 {
				values[base+"_mean_s"] = ds / dc
			}
		}
		// Windowed cache hit ratio, only when the window saw lookups —
		// an idle server must not read as a hit-rate collapse.
		if hasCache {
			dh := hits - s.prev.counters["thicket_response_cache_hits_total"]
			dm := misses - s.prev.counters["thicket_response_cache_misses_total"]
			if dh >= 0 && dm >= 0 && dh+dm > 0 {
				values["thicket_response_cache_hit_ratio"] = dh / (dh + dm)
			}
		}
	}
	s.prev = prevState{valid: true, unixNS: now.UnixNano(), counters: counters}
}

// Close takes no further samples, flushes any unwritten history
// samples, and releases the store handle.
func (s *Sampler) Close() error {
	s.mu.Lock()
	h := s.history
	s.mu.Unlock()
	if h == nil {
		return nil
	}
	return h.close()
}

// HistoryPath returns the monitor-store path, or "" when history is
// disabled.
func (s *Sampler) HistoryPath() string {
	if s.history == nil {
		return ""
	}
	return s.history.path
}

// SeriesPoint is one (timestamp, value) observation.
type SeriesPoint struct {
	UnixNS int64   `json:"t"`
	Value  float64 `json:"v"`
}

// Series is one metric's view over the requested window.
type Series struct {
	Min    float64       `json:"min"`
	Mean   float64       `json:"mean"`
	Max    float64       `json:"max"`
	Last   float64       `json:"last"`
	Points []SeriesPoint `json:"points"`
}

// WindowSnapshot is the /debug/monitor response body.
type WindowSnapshot struct {
	Enabled   bool              `json:"enabled"`
	IntervalS float64           `json:"interval_s"`
	Ticks     int64             `json:"ticks"`
	Samples   int               `json:"samples"`
	WindowS   float64           `json:"window_s"`
	Series    map[string]Series `json:"series"`
}

// Window returns every series restricted to samples within window of
// the newest sample (0 means the whole ring). metrics, when non-empty,
// keeps only series whose name contains one of the given substrings.
func (s *Sampler) Window(window time.Duration, metrics []string) WindowSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := WindowSnapshot{
		Enabled:   true,
		IntervalS: s.opts.Interval.Seconds(),
		Ticks:     s.ticks,
		Samples:   len(s.ring),
		WindowS:   window.Seconds(),
		Series:    make(map[string]Series),
	}
	if len(s.ring) == 0 {
		return out
	}
	start := 0
	if window > 0 {
		cutoff := s.ring[len(s.ring)-1].UnixNS - window.Nanoseconds()
		for start < len(s.ring)-1 && s.ring[start].UnixNS < cutoff {
			start++
		}
	} else {
		out.WindowS = float64(s.ring[len(s.ring)-1].UnixNS-s.ring[0].UnixNS) / 1e9
	}
	names := make(map[string]struct{})
	for _, sm := range s.ring[start:] {
		for name := range sm.Values {
			if !matchMetric(name, metrics) {
				continue
			}
			names[name] = struct{}{}
		}
	}
	for name := range names {
		ser := Series{Min: math.Inf(1), Max: math.Inf(-1)}
		sum, n := 0.0, 0
		for _, sm := range s.ring[start:] {
			v, ok := sm.Values[name]
			if !ok {
				continue
			}
			ser.Points = append(ser.Points, SeriesPoint{UnixNS: sm.UnixNS, Value: v})
			ser.Min = math.Min(ser.Min, v)
			ser.Max = math.Max(ser.Max, v)
			ser.Last = v
			sum += v
			n++
		}
		ser.Mean = sum / float64(n)
		out.Series[name] = ser
	}
	return out
}

// matchMetric reports whether name passes the ?metrics= filter: empty
// filter admits everything, otherwise substring match on any term.
func matchMetric(name string, terms []string) bool {
	if len(terms) == 0 {
		return true
	}
	for _, t := range terms {
		if t != "" && strings.Contains(name, t) {
			return true
		}
	}
	return false
}

// Timestamps returns the ring's sample instants, oldest first — the
// determinism tests compare these across same-seed runs.
func (s *Sampler) Timestamps() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int64, len(s.ring))
	for i, sm := range s.ring {
		out[i] = sm.UnixNS
	}
	return out
}

// RuleStatus is one rule's public state at /debug/alerts. A baseline
// rule fires while any of its series does, and lists every series'
// rolling baseline.
type RuleStatus struct {
	Rule
	Firing      bool             `json:"firing"`
	SinceUnixNS int64            `json:"since_unix_ns,omitempty"`
	LastValue   float64          `json:"last_value"`
	FiredTotal  int64            `json:"fired_total"`
	Baselines   []BaselineStatus `json:"baselines,omitempty"`
}

// AlertsSnapshot is the /debug/alerts response body.
type AlertsSnapshot struct {
	Enabled     bool         `json:"enabled"`
	Ticks       int64        `json:"ticks"`
	Firing      []string     `json:"firing"`
	Rules       []RuleStatus `json:"rules"`
	Transitions []Transition `json:"transitions"`
}

// Alerts returns every rule's state plus the recent transition log.
func (s *Sampler) Alerts() AlertsSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := AlertsSnapshot{
		Enabled:     true,
		Ticks:       s.ticks,
		Firing:      []string{},
		Rules:       make([]RuleStatus, 0, len(s.rules)),
		Transitions: append([]Transition{}, s.log...),
	}
	for _, st := range s.rules {
		rs := RuleStatus{
			Rule:       st.Rule,
			LastValue:  st.lastValue,
			FiredTotal: st.firedTotal,
		}
		if rs.Firing, rs.SinceUnixNS = st.active(); rs.Firing {
			out.Firing = append(out.Firing, st.Name)
		}
		if st.Kind == KindBaseline {
			rs.Baselines = st.baselines()
		}
		out.Rules = append(out.Rules, rs)
	}
	sort.Strings(out.Firing)
	return out
}
