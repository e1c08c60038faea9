package monitor

import (
	"math"
	"sort"
	"strings"

	"repro/internal/telemetry"
)

// Baseline-rule constants: the EWMA weight of the newest interval, and
// the folded intervals a series needs before it is judged.
const (
	baselineAlpha  = 0.3
	BaselineWarmup = 3
)

// seriesBaseline is one histogram series' rolling latency baseline
// under a baseline rule, with the series' own hysteresis.
type seriesBaseline struct {
	hysteresis
	rule      *Rule
	target    string
	lastCount int64
	lastSum   float64
	mean      float64 // EWMA of interval means, seconds
	variance  float64 // EWMA of squared deviations
	intervals int     // folded intervals
}

// ready reports whether the baseline has warmed up enough to judge.
func (b *seriesBaseline) ready() bool { return b != nil && b.intervals >= BaselineWarmup }

// exceeds applies the rule to one observation (an interval mean, or a
// single trace's duration), in seconds: it must be above baseline×
// Factor, at least MinDeltaS above the baseline, and — unless the
// baseline has no spread yet — more than Value σ above it. The factor
// keeps a zero-variance baseline from alarming on floating-point noise;
// the absolute floor keeps µs-scale baselines (loopback endpoints,
// cached responses) from alarming on GC or scheduler jitter.
func (b *seriesBaseline) exceeds(v float64) bool {
	std := math.Sqrt(b.variance)
	return v > b.mean*b.rule.Factor && v >= b.mean+b.rule.MinDeltaS &&
		(std == 0 || v > b.mean+b.rule.Value*std)
}

// fold adds one judged interval mean to the EWMA. The first interval
// seeds the mean: an EWMA started at zero converges too slowly.
func (b *seriesBaseline) fold(m float64) {
	if b.intervals == 0 {
		b.mean = m
	} else {
		d := m - b.mean
		b.mean += baselineAlpha * d
		b.variance = (1 - baselineAlpha) * (b.variance + baselineAlpha*d*d)
	}
	b.intervals++
}

// histReading is one series' cumulative count and sum at a tick.
type histReading struct {
	kv    []string
	count int64
	sum   float64
}

// evalBaselines judges every series of every baseline rule on this
// tick. Each series' interval is Δsum/Δcount since the last tick; an
// interval with fewer than MinSamples observations is neither judged
// nor folded, and a series is judged only once warmed up and before
// its interval folds in. The registry is read first; baseMu is held
// only while folding, so IsSlow never waits on the registry. Caller
// holds s.mu.
func (s *Sampler) evalBaselines(tick, nowNS int64) []Transition {
	var out []Transition
	for _, st := range s.rules {
		if st.Kind != KindBaseline {
			continue
		}
		var readings []histReading
		s.opts.Registry.VisitHistograms(st.Metric, func(kv []string, h *telemetry.Histogram) {
			count, sum := h.Snapshot()
			readings = append(readings, histReading{kv: kv, count: count, sum: sum})
		})
		s.baseMu.Lock()
		for _, r := range readings {
			key := strings.Join(r.kv, "\x00")
			b := st.series[key]
			if b == nil {
				b = &seriesBaseline{rule: &st.Rule, target: targetOf(r.kv)}
				st.series[key] = b
				s.byTarget[b.target] = b
			}
			dc, ds := r.count-b.lastCount, r.sum-b.lastSum
			b.lastCount, b.lastSum = r.count, r.sum
			breached, m := false, 0.0
			if dc > 0 && dc >= st.MinSamples {
				m = ds / float64(dc)
				breached = b.ready() && b.exceeds(m)
				b.fold(m)
			}
			out = st.advance(&b.hysteresis, breached, b.target, m, tick, nowNS, out)
		}
		s.baseMu.Unlock()
	}
	return out
}

// IsSlow reports whether one finished trace (root span name, seconds)
// is slow against its target's baseline, by the same thresholds that
// judge an interval — the tail-retention judge of telemetry.Policy. A
// root named "http <path>" resolves to the endpoint baseline of <path>.
// Targets not yet warmed up are never slow. It takes only the baseline
// lock, which a tick holds just while folding, so a finishing request
// never waits on the registry snapshot or the runtime/metrics read.
func (s *Sampler) IsSlow(name string, seconds float64) bool {
	s.baseMu.Lock()
	defer s.baseMu.Unlock()
	b := s.byTarget[name]
	if b == nil {
		if path, ok := strings.CutPrefix(name, "http "); ok {
			b = s.byTarget[path]
		}
	}
	return b.ready() && b.exceeds(seconds)
}

// targetOf picks the human target from a label set: the value of the
// last (key, value) pair — "endpoint" for HTTP histograms, "span" for
// span histograms — or "(unlabeled)".
func targetOf(kv []string) string {
	if len(kv) < 2 {
		return "(unlabeled)"
	}
	return kv[len(kv)-1]
}

// BaselineStatus is one series' rolling baseline at /debug/alerts.
type BaselineStatus struct {
	Target    string  `json:"target"`
	MeanS     float64 `json:"mean_s"`    // EWMA of interval means, seconds
	StdS      float64 `json:"std_s"`     // EWMA standard deviation, seconds
	Intervals int     `json:"intervals"` // folded intervals
	Count     int64   `json:"count"`     // observations seen
}

// baselines lists a baseline rule's series, ordered by label key.
// Caller holds s.mu.
func (st *ruleState) baselines() []BaselineStatus {
	keys := make([]string, 0, len(st.series))
	for k := range st.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]BaselineStatus, len(keys))
	for i, k := range keys {
		b := st.series[k]
		out[i] = BaselineStatus{
			Target:    b.target,
			MeanS:     b.mean,
			StdS:      math.Sqrt(b.variance),
			Intervals: b.intervals,
			Count:     b.lastCount,
		}
	}
	return out
}
