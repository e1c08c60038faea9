package monitor

import (
	"encoding/json"
	"fmt"
	"os"
)

// Rule kinds.
const (
	KindThreshold = "threshold" // latest value compared against Value
	KindRate      = "rate"      // per-second change over WindowTicks samples
	KindAbsence   = "absence"   // metric missing from the last WindowTicks samples
	KindBaseline  = "baseline"  // each series of a histogram family vs its own rolling latency baseline
)

// Rule is one declarative alert. Rules are plain JSON so operators can
// ship a file via `thicketd -alert-rules rules.json`:
//
//	[{"name": "heap-growth", "kind": "rate",
//	  "metric": "go_heap_inuse_bytes", "op": ">", "value": 67108864,
//	  "window_ticks": 5, "for_ticks": 5}]
//
// A baseline rule names a histogram family in Metric and judges each of
// its labelled series against that series' own rolling baseline (see
// baseline.go): Value is the σ multiple, and Factor, MinSamples and
// MinDeltaS are its other thresholds.
type Rule struct {
	Name        string  `json:"name"`
	Description string  `json:"description,omitempty"`
	Metric      string  `json:"metric"`
	Kind        string  `json:"kind"`
	Op          string  `json:"op,omitempty"`           // ">" (default) or "<"
	Value       float64 `json:"value,omitempty"`        // threshold / rate bound
	ForTicks    int     `json:"for_ticks,omitempty"`    // consecutive breaches to fire (default 3)
	ClearTicks  int     `json:"clear_ticks,omitempty"`  // consecutive ok ticks to resolve (default ForTicks)
	WindowTicks int     `json:"window_ticks,omitempty"` // rate/absence lookback (default 5)
	Factor      float64 `json:"factor,omitempty"`       // baseline: interval mean must exceed baseline×Factor
	MinSamples  int64   `json:"min_samples,omitempty"`  // baseline: observations an interval needs to be judged (at least 1)
	MinDeltaS   float64 `json:"min_delta_s,omitempty"`  // baseline: ...and exceed the baseline by at least this many seconds
}

func (r Rule) withDefaults() Rule {
	if r.Op == "" {
		r.Op = ">"
	}
	if r.ForTicks <= 0 {
		r.ForTicks = 3
	}
	if r.ClearTicks <= 0 {
		r.ClearTicks = r.ForTicks
	}
	if r.WindowTicks <= 0 {
		r.WindowTicks = 5
	}
	return r
}

func (r Rule) validate() error {
	if r.Name == "" {
		return fmt.Errorf("monitor: rule with empty name")
	}
	if r.Metric == "" {
		return fmt.Errorf("monitor: rule %q: metric required", r.Name)
	}
	switch r.Kind {
	case KindThreshold, KindRate, KindAbsence, KindBaseline:
	default:
		return fmt.Errorf("monitor: rule %q: unknown kind %q", r.Name, r.Kind)
	}
	if r.Op != ">" && r.Op != "<" {
		return fmt.Errorf("monitor: rule %q: op must be > or <, got %q", r.Name, r.Op)
	}
	if r.Kind == KindBaseline && r.Op != ">" {
		return fmt.Errorf("monitor: rule %q: a baseline rule only judges slowdowns (op >)", r.Name)
	}
	return nil
}

// checkRing rejects a rule the ring can never judge: a rate rule needs
// WindowTicks+1 samples and an absence rule WindowTicks, and the ring
// never holds more than ringSize.
func (r Rule) checkRing(ringSize int) error {
	if (r.Kind == KindRate && r.WindowTicks >= ringSize) ||
		(r.Kind == KindAbsence && r.WindowTicks > ringSize) {
		return fmt.Errorf("monitor: rule %q: window_ticks %d can never be judged on a ring of %d samples",
			r.Name, r.WindowTicks, ringSize)
	}
	return nil
}

// DefaultRules is the shipped alert set: the failure modes a thicketd
// operator most wants a page for, with bounds loose enough that a
// healthy loaded server stays quiet.
func DefaultRules() []Rule {
	return []Rule{
		{
			Name: "heap-growth", Kind: KindRate, Metric: "go_heap_inuse_bytes",
			Op: ">", Value: 64 << 20, WindowTicks: 5, ForTicks: 5,
			Description: "heap in-use growing faster than 64 MiB/s, sustained",
		},
		{
			Name: "gc-pause-p99", Kind: KindThreshold, Metric: "go_gc_pause_p99_seconds",
			Op: ">", Value: 0.1, ForTicks: 3,
			Description: "GC pause p99 above 100ms",
		},
		{
			Name: "goroutine-leak", Kind: KindRate, Metric: "go_goroutines",
			Op: ">", Value: 25, WindowTicks: 10, ForTicks: 10,
			Description: "goroutine count growing by more than 25/s, sustained",
		},
		{
			Name: "ingest-queue-saturation", Kind: KindThreshold, Metric: "thicket_ingest_queue_depth",
			Op: ">", Value: 224, ForTicks: 3,
			Description: "ingest queue near capacity (default queue holds 256)",
		},
		{
			Name: "cache-hit-rate-collapse", Kind: KindThreshold, Metric: "thicket_response_cache_hit_ratio",
			Op: "<", Value: 0.05, ForTicks: 5,
			Description: "response-cache hit ratio collapsed below 5% under traffic",
		},
		{
			Name: "http-latency", Kind: KindBaseline, Metric: "thicket_http_request_seconds",
			Value: 3, Factor: 1.5, MinSamples: 5, ForTicks: 1, ClearTicks: 1,
			Description: "an endpoint's interval mean latency above 1.5x and 3 sigma beyond its rolling baseline",
		},
		{
			Name: "span-latency", Kind: KindBaseline, Metric: "thicket_span_seconds",
			Value: 3, Factor: 1.5, MinSamples: 5, ForTicks: 1, ClearTicks: 1,
			Description: "a span's interval mean duration above 1.5x and 3 sigma beyond its rolling baseline",
		},
	}
}

// LoadRules reads a JSON rules file ([]Rule). Defaults are applied and
// each rule validated so a bad file fails at startup, not on the tick.
func LoadRules(path string) ([]Rule, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("monitor: alert rules: %w", err)
	}
	var rules []Rule
	if err := json.Unmarshal(raw, &rules); err != nil {
		return nil, fmt.Errorf("monitor: alert rules %s: %w", path, err)
	}
	for i := range rules {
		rules[i] = rules[i].withDefaults()
		if err := rules[i].validate(); err != nil {
			return nil, fmt.Errorf("%w (in %s)", err, path)
		}
	}
	return rules, nil
}

// Transition is one firing or resolved edge.
type Transition struct {
	Rule   string  `json:"rule"`
	Target string  `json:"target,omitempty"` // baseline rules: the series' target
	Firing bool    `json:"firing"`
	Value  float64 `json:"value"`
	Tick   int64   `json:"tick"`
	UnixNS int64   `json:"unix_ns"`
}

// hysteresis is the fire/clear state machine every alert runs through:
// breachRun counts consecutive breaching ticks (fire at ForTicks),
// okRun counts consecutive clean ticks while firing (resolve at
// ClearTicks). An alternating boundary value therefore never flaps:
// each ok tick resets breachRun and each breach resets okRun, so
// neither run reaches its trigger length.
type hysteresis struct {
	Firing      bool
	breachRun   int
	okRun       int
	sinceUnixNS int64
}

// ruleState is one rule's runtime state. Scalar kinds run the embedded
// hysteresis; a baseline rule runs one per series instead.
type ruleState struct {
	Rule
	hysteresis
	lastValue  float64
	firedTotal int64
	series     map[string]*seriesBaseline // baseline kind: label key -> series
}

// advance steps h by one verdict (unjudged ticks count as clean) and
// appends the edge it crossed, if any, to out.
func (st *ruleState) advance(h *hysteresis, breached bool, target string, value float64, tick, nowNS int64, out []Transition) []Transition {
	if breached {
		h.breachRun++
		h.okRun = 0
		if h.Firing || h.breachRun < st.ForTicks {
			return out
		}
		h.Firing = true
		h.sinceUnixNS = nowNS
		st.firedTotal++
	} else {
		h.breachRun = 0
		if !h.Firing {
			return out
		}
		h.okRun++
		if h.okRun < st.ClearTicks {
			return out
		}
		h.Firing = false
		h.okRun = 0
		h.sinceUnixNS = 0
	}
	return append(out, Transition{Rule: st.Name, Target: target, Firing: h.Firing, Value: value, Tick: tick, UnixNS: nowNS})
}

// active reports whether the rule is firing (a baseline rule: any of
// its series) and since when.
func (st *ruleState) active() (firing bool, sinceUnixNS int64) {
	if st.Kind != KindBaseline {
		return st.Firing, st.sinceUnixNS
	}
	for _, b := range st.series {
		if b.Firing && (!firing || b.sinceUnixNS < sinceUnixNS) {
			firing, sinceUnixNS = true, b.sinceUnixNS
		}
	}
	return firing, sinceUnixNS
}

// evalRules advances every scalar rule against the ring and returns
// the transitions this tick produced; baseline rules are judged per
// series by Sampler.evalBaselines. Caller holds the sampler lock.
func evalRules(rules []*ruleState, ring []Sample, tick, nowNS int64) []Transition {
	var out []Transition
	for _, st := range rules {
		if st.Kind == KindBaseline {
			continue
		}
		breached, value, judged := judge(st.Rule, ring)
		if judged {
			st.lastValue = value
		}
		// Not judgeable yet (warmup) counts as clean.
		out = st.advance(&st.hysteresis, judged && breached, "", value, tick, nowNS, out)
	}
	return out
}

// judge evaluates one rule against the ring. judged is false when the
// ring cannot support a verdict yet (empty, still warming up for the
// rule's window, or the metric has never appeared for threshold/rate) —
// unjudged ticks count as clean so absence rules stay silent during
// sampler warmup and an empty ring never fires anything.
func judge(r Rule, ring []Sample) (breached bool, value float64, judged bool) {
	if len(ring) == 0 {
		return false, 0, false
	}
	cmp := func(v float64) bool {
		if r.Op == "<" {
			return v < r.Value
		}
		return v > r.Value
	}
	latest := ring[len(ring)-1]
	switch r.Kind {
	case KindThreshold:
		v, ok := latest.Values[r.Metric]
		if !ok {
			return false, 0, false
		}
		return cmp(v), v, true
	case KindRate:
		if len(ring) <= r.WindowTicks {
			return false, 0, false
		}
		then := ring[len(ring)-1-r.WindowTicks]
		v1, ok1 := then.Values[r.Metric]
		v2, ok2 := latest.Values[r.Metric]
		if !ok1 || !ok2 {
			return false, 0, false
		}
		dt := float64(latest.UnixNS-then.UnixNS) / 1e9
		if dt <= 0 {
			return false, 0, false
		}
		rate := (v2 - v1) / dt
		return cmp(rate), rate, true
	case KindAbsence:
		if len(ring) < r.WindowTicks {
			return false, 0, false
		}
		for _, sm := range ring[len(ring)-r.WindowTicks:] {
			if _, ok := sm.Values[r.Metric]; ok {
				return false, 0, true
			}
		}
		return true, 0, true
	}
	return false, 0, false
}
