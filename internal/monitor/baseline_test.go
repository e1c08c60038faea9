package monitor

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// baselineFixture drives one baseline rule over a private registry
// whose endpoint histogram has a single series, /api/stats. The sampler
// ticks at synthetic 1s-spaced instants.
type baselineFixture struct {
	t    *testing.T
	s    *Sampler
	reg  *telemetry.Registry
	h    *telemetry.Histogram
	tick int64
}

const testFamily = "thicket_http_request_seconds"

func newBaselineFixture(t *testing.T, r Rule) *baselineFixture {
	t.Helper()
	reg := newTestRegistry()
	h := reg.Histogram(testFamily, "test", "endpoint", "/api/stats")
	r.Name, r.Kind, r.Metric = "http-latency", KindBaseline, testFamily
	if r.ForTicks == 0 {
		r.ForTicks, r.ClearTicks = 1, 1
	}
	s, err := New(Options{Registry: reg, Rules: []Rule{r}})
	if err != nil {
		t.Fatal(err)
	}
	return &baselineFixture{t: t, s: s, reg: reg, h: h}
}

// feed records n observations of v seconds, ticks once at the next
// synthetic instant, and reports whether the interval breached: the
// series' breach run is non-zero only right after a breaching tick.
func (f *baselineFixture) feed(n int, v float64) bool {
	for i := 0; i < n; i++ {
		f.h.Observe(v)
	}
	f.tick++
	f.s.Tick(unix(f.tick))
	return f.series().breachRun > 0
}

// series is the /api/stats baseline state.
func (f *baselineFixture) series() *seriesBaseline {
	f.t.Helper()
	for _, b := range f.s.rules[0].series {
		if b.target == "/api/stats" {
			return b
		}
	}
	f.t.Fatal("no /api/stats series")
	return nil
}

// baselines is the rule's /debug/alerts view.
func (f *baselineFixture) baselines() []BaselineStatus {
	return f.s.Alerts().Rules[0].Baselines
}

// randLatency draws a log-uniform latency in [1µs, 10s).
func randLatency(r *rand.Rand) float64 {
	return math.Pow(10, -6+7*r.Float64())
}

// TestBaselineFlagsInjectedSlowdown warms a baseline on a steady
// endpoint, injects a slowdown, and checks the per-target firing
// transition, the rule's alert counter, and that a steady neighbour
// endpoint never fires.
func TestBaselineFlagsInjectedSlowdown(t *testing.T) {
	f := newBaselineFixture(t, Rule{Value: 3, Factor: 1.5, MinSamples: 5})
	other := f.reg.Histogram(testFamily, "test", "endpoint", "/api/info")
	steady := func() {
		for i := 0; i < 20; i++ {
			other.Observe(0.002)
		}
	}

	for i := 0; i < 5; i++ {
		steady()
		if f.feed(20, 0.010) {
			t.Fatalf("steady interval %d breached", i)
		}
	}
	bs := f.baselines()
	if len(bs) != 2 || bs[0].Target != "/api/info" || bs[1].Target != "/api/stats" {
		t.Fatalf("baselines = %+v", bs)
	}
	if math.Abs(bs[1].MeanS-0.010) > 1e-9 {
		t.Errorf("baseline mean %.6f, want 0.010", bs[1].MeanS)
	}

	steady()
	if !f.feed(20, 0.100) { // 10× regression
		t.Fatal("injected slowdown not flagged")
	}
	a := f.s.Alerts()
	if len(a.Transitions) != 1 {
		t.Fatalf("transitions = %+v, want one firing", a.Transitions)
	}
	tr := a.Transitions[0]
	if tr.Rule != "http-latency" || tr.Target != "/api/stats" || !tr.Firing || tr.Tick != 6 {
		t.Errorf("transition = %+v", tr)
	}
	if tr.Value < 0.09 {
		t.Errorf("transition value %.4f, want the interval mean", tr.Value)
	}
	if len(a.Firing) != 1 || a.Firing[0] != "http-latency" || a.Rules[0].FiredTotal != 1 {
		t.Errorf("firing = %v, fired total %d", a.Firing, a.Rules[0].FiredTotal)
	}

	var sb strings.Builder
	if err := f.reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`thicket_monitor_alerts_total{rule="http-latency"} 1`,
		"thicket_monitor_alerts_firing 1",
		"thicket_monitor_samples_total 6",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The regressed interval folds into the EWMA, so a recovery interval
	// is not flagged, and with clear_ticks 1 the target resolves.
	steady()
	if f.feed(20, 0.010) {
		t.Error("recovery interval flagged")
	}
	a = f.s.Alerts()
	if len(a.Firing) != 0 || len(a.Transitions) != 2 || a.Transitions[1].Firing {
		t.Errorf("after recovery: firing %v, transitions %+v", a.Firing, a.Transitions)
	}
}

// TestBaselineWarmupAndMinSamples: quiet or short intervals never flag
// and never fold.
func TestBaselineWarmupAndMinSamples(t *testing.T) {
	f := newBaselineFixture(t, Rule{Value: 3, Factor: 1.5, MinSamples: 5})

	// Below MinSamples: interval skipped entirely.
	if f.feed(2, 5.0) {
		t.Fatal("sparse interval flagged")
	}
	if bs := f.baselines(); len(bs) != 1 || bs[0].Intervals != 0 {
		t.Fatalf("sparse interval folded: %+v", bs)
	}

	// During warmup, even a huge jump is folded silently.
	f.feed(10, 0.001)
	if f.feed(10, 1.0) {
		t.Error("warmup interval flagged")
	}
	if got := f.baselines()[0].Intervals; got != 2 {
		t.Errorf("folded intervals = %d, want 2", got)
	}
}

// TestBaselineIsSlow exercises the tail-sampling judge, including the
// "http " span-name prefix fallback onto endpoint baselines.
func TestBaselineIsSlow(t *testing.T) {
	f := newBaselineFixture(t, Rule{Value: 3, Factor: 1.5, MinSamples: 1})

	if f.s.IsSlow("/api/stats", 10) {
		t.Error("cold baseline judged a trace slow")
	}
	for i := 0; i < BaselineWarmup; i++ {
		if f.s.IsSlow("/api/stats", 10) {
			t.Fatalf("baseline judged a trace slow after %d of %d warmup intervals", i, BaselineWarmup)
		}
		f.feed(10, 0.010)
	}

	if !f.s.IsSlow("/api/stats", 0.100) {
		t.Error("10× trace not judged slow")
	}
	if f.s.IsSlow("/api/stats", 0.011) {
		t.Error("1.1× trace judged slow")
	}
	// HTTP root spans are named "http <path>" but the histogram label is
	// the bare path; the judge must bridge that.
	if !f.s.IsSlow("http /api/stats", 0.100) {
		t.Error("prefixed span name did not resolve to endpoint baseline")
	}
	if f.s.IsSlow("store.Load", 10) {
		t.Error("unknown target judged slow")
	}
}

// TestBaselineTransitionLogBounded: per-target transitions share the
// sampler's bounded transition log, which drops the oldest first,
// while the rule's fired total and alert counter count every firing.
func TestBaselineTransitionLogBounded(t *testing.T) {
	reg := newTestRegistry()
	const targets = 150
	hs := make([]*telemetry.Histogram, targets)
	for i := range hs {
		hs[i] = reg.Histogram(testFamily, "test", "endpoint", fmt.Sprintf("/t%03d", i))
	}
	s, err := New(Options{Registry: reg, Rules: []Rule{{
		Name: "http-latency", Kind: KindBaseline, Metric: testFamily,
		Value: 3, Factor: 1.5, ForTicks: 1, ClearTicks: 1,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	tick := int64(0)
	feedAll := func(v float64) {
		for _, h := range hs {
			h.Observe(v)
		}
		tick++
		s.Tick(unix(tick))
	}
	for i := 0; i < BaselineWarmup; i++ {
		feedAll(0.001)
	}
	// Every target fires, then resolves on a quiet (unobserved) tick,
	// then fires again: 150 + 150 + 150 transitions.
	feedAll(1.0)
	tick++
	s.Tick(unix(tick))
	feedAll(100.0)

	a := s.Alerts()
	if len(a.Transitions) != transitionLogSize {
		t.Fatalf("transition log length %d, want %d", len(a.Transitions), transitionLogSize)
	}
	for i := 1; i < len(a.Transitions); i++ {
		if a.Transitions[i].Tick < a.Transitions[i-1].Tick {
			t.Fatalf("log not oldest-first at %d: %+v", i, a.Transitions[i-1:i+1])
		}
	}
	if last := a.Transitions[len(a.Transitions)-1]; last.Tick != a.Ticks || !last.Firing {
		t.Errorf("newest transition %+v, sampler ticks %d", last, a.Ticks)
	}
	if a.Rules[0].FiredTotal != 2*targets {
		t.Errorf("fired total %d, want %d", a.Rules[0].FiredTotal, 2*targets)
	}
	if got := reg.Counter("thicket_monitor_alerts_total", "", "rule", "http-latency").Value(); got != 2*targets {
		t.Errorf("alerts_total = %d, want %d", got, 2*targets)
	}
	// One rule fires, whatever the number of its firing targets.
	if got := reg.Gauge("thicket_monitor_alerts_firing", "").Value(); got != 1 {
		t.Errorf("firing gauge = %d, want 1", got)
	}
}

// TestBaselineFoldsUnderRun: the wall-clock ticker folds baselines on
// its own until its context is cancelled.
func TestBaselineFoldsUnderRun(t *testing.T) {
	reg := newTestRegistry()
	h := reg.Histogram(testFamily, "test", "endpoint", "/api/stats")
	s, err := New(Options{Registry: reg, Interval: 2 * time.Millisecond, Rules: []Rule{{
		Name: "http-latency", Kind: KindBaseline, Metric: testFamily, Value: 3, Factor: 1.5,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		h.Observe(0.001)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); s.Run(ctx) }()
	deadline := time.Now().Add(2 * time.Second)
	for len(s.Alerts().Rules[0].Baselines) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done
	bs := s.Alerts().Rules[0].Baselines
	if len(bs) != 1 || bs[0].Intervals != 1 || bs[0].Count != 100 {
		t.Errorf("Run folded %+v, want one interval of 100 observations", bs)
	}
}

// TestIsSlowConcurrentWithTick: IsSlow runs on every finishing request
// while the sampler ticks in the background; under -race this proves
// the two share the baselines safely.
func TestIsSlowConcurrentWithTick(t *testing.T) {
	f := newBaselineFixture(t, Rule{Value: 3, Factor: 1.5, MinSamples: 1})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				f.s.IsSlow("http /api/stats", 0.5)
				f.s.IsSlow("/api/info", 0.5)
			}
		}()
	}
	for i := 0; i < 50; i++ {
		f.feed(5, 0.001)
		if i%10 == 0 {
			// A new series appears mid-run: IsSlow's lookup map grows.
			f.reg.Histogram(testFamily, "test", "endpoint", fmt.Sprintf("/new%d", i)).Observe(0.001)
		}
	}
	close(stop)
	wg.Wait()
	if !f.s.IsSlow("http /api/stats", 0.5) {
		t.Error("warmed baseline did not judge a 500× trace slow")
	}
}

// Property tests for the baseline fold. Each property is checked over
// many seeded-random parameterizations — latency scales spanning µs to
// seconds, arbitrary thresholds — so the invariants hold across the
// whole operating envelope, not just the defaults.

// TestBaselinePropertyFirstIntervalSeeds: the first folded interval
// seeds the baseline at exactly the interval mean with zero variance —
// an EWMA started at zero would otherwise report every warm endpoint as
// a regression for the first 1/alpha windows.
func TestBaselinePropertyFirstIntervalSeeds(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		v := randLatency(r)
		n := 5 + r.Intn(100)
		f := newBaselineFixture(t, Rule{Value: 3, Factor: 1.5, MinSamples: 5})
		if f.feed(n, v) {
			t.Fatal("first interval flagged")
		}
		bs := f.baselines()
		if len(bs) != 1 {
			t.Fatalf("baselines = %+v", bs)
		}
		b := bs[0]
		if math.Abs(b.MeanS-v) > v*1e-9 {
			t.Fatalf("v=%g: seeded mean %g, want the interval mean", v, b.MeanS)
		}
		if b.StdS != 0 {
			t.Fatalf("v=%g: seeded std %g, want 0", v, b.StdS)
		}
		if b.Intervals != 1 || b.Count != int64(n) {
			t.Fatalf("v=%g: intervals/count = %d/%d, want 1/%d", v, b.Intervals, b.Count, n)
		}
	}
}

// TestBaselinePropertyConstantStreamNeverAlarms: a constant-latency
// stream must never alarm, no matter how aggressive sigma is. The
// factor rule guarantees this: an interval equal to its own baseline is
// never factor× above it, so zero-variance steady state stays quiet
// even at sigma→0 where the sigma rule alone would fire on fp noise.
func TestBaselinePropertyConstantStreamNeverAlarms(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 40; trial++ {
		v := randLatency(r)
		sigma := math.Pow(10, -3+4*r.Float64()) // 0.001 .. 10
		f := newBaselineFixture(t, Rule{Value: sigma, Factor: 1.05, MinSamples: 1})
		for i := 0; i < 50; i++ {
			n := 1 + r.Intn(40)
			if f.feed(n, v) {
				t.Fatalf("v=%g sigma=%g: constant stream flagged at interval %d", v, sigma, i)
			}
		}
		if got := f.baselines()[0].MeanS; math.Abs(got-v) > v*1e-6 {
			t.Fatalf("v=%g: baseline drifted to %g on a constant stream", v, got)
		}
		if n := len(f.s.Alerts().Transitions); n != 0 {
			t.Fatalf("v=%g sigma=%g: constant stream walked %d transitions", v, sigma, n)
		}
	}
}

// TestBaselinePropertySparseIntervalsNeverFold: intervals with fewer
// than MinSamples observations are ignored entirely — not flagged, not
// folded — regardless of how extreme their values are, even once the
// baseline is warm enough to judge.
func TestBaselinePropertySparseIntervalsNeverFold(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		minSamples := 2 + r.Intn(20)
		f := newBaselineFixture(t, Rule{Value: 3, Factor: 1.5, MinSamples: int64(minSamples)})
		for i := 0; i < BaselineWarmup; i++ {
			f.feed(minSamples, 0.001) // honest intervals warm the baseline
		}
		for i := 0; i < 20; i++ {
			n := r.Intn(minSamples) // always short of the gate
			if f.feed(n, 100+1000*r.Float64()) {
				t.Fatalf("min=%d: sparse interval flagged", minSamples)
			}
		}
		bs := f.baselines()
		if bs[0].Intervals != BaselineWarmup {
			t.Fatalf("min=%d: sparse intervals folded, count %d", minSamples, bs[0].Intervals)
		}
		if math.Abs(bs[0].MeanS-0.001) > 1e-12 {
			t.Fatalf("min=%d: sparse garbage moved the baseline to %g", minSamples, bs[0].MeanS)
		}
	}
}

// TestBaselinePropertyWarmupNeverFlags: during the warmup window even
// arbitrarily large level jumps fold silently; the first interval past
// warmup is judged.
func TestBaselinePropertyWarmupNeverFlags(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 40; trial++ {
		f := newBaselineFixture(t, Rule{Value: 3, Factor: 1.5, MinSamples: 1})
		maxSeen := 0.0
		for i := 0; i < BaselineWarmup; i++ {
			v := randLatency(r) * math.Pow(10, 3*r.Float64())
			maxSeen = math.Max(maxSeen, v)
			if f.feed(5, v) {
				t.Fatalf("warmup interval %d flagged", i)
			}
		}
		// Past warmup a 100× step over every warmup interval must flag:
		// the EWMA mean is at most that maximum M and its σ below M, so
		// 100·M clears 1.5× the mean and the mean plus 3σ.
		if !f.feed(5, maxSeen*100) {
			t.Fatalf("100× step after warmup not flagged (baseline %+v)", f.baselines()[0])
		}
	}
}

// TestBaselinePropertyStepAlwaysFlagged: from a zero-variance steady
// state, any step strictly beyond the factor threshold is flagged on
// its first interval, for arbitrary scales and factors, and fires a
// transition carrying the interval mean.
func TestBaselinePropertyStepAlwaysFlagged(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		v := randLatency(r)
		factor := 1.1 + 4*r.Float64()
		f := newBaselineFixture(t, Rule{Value: 3, Factor: factor, MinSamples: 1})
		for i := 0; i < 4; i++ {
			f.feed(10, v)
		}
		b := f.series()
		if math.Abs(b.mean-v) > v*1e-6 {
			t.Fatalf("v=%g: steady baseline %g", v, b.mean)
		}
		step := v * factor * 1.5
		// Near-zero variance (exactly zero up to fp rounding of the
		// histogram sums): the step's deviation must dwarf any sane
		// sigma — +Inf when the variance is exactly zero.
		if std := math.Sqrt(b.variance); std > 0 && (step-b.mean)/std < 1e6 {
			t.Errorf("v=%g: steady-state step is only %g std devs out", v, (step-b.mean)/std)
		}
		if !f.feed(10, step) {
			t.Fatalf("v=%g factor=%g: step to %g not flagged", v, factor, step)
		}
		tr := f.s.Alerts().Transitions
		if len(tr) != 1 || !tr[0].Firing || tr[0].Value < step*0.99 {
			t.Fatalf("transitions %+v, want one firing at interval mean ≈%g", tr, step)
		}
	}
}

// TestBaselinePropertyMinDeltaFloor: with an absolute floor set, a
// relative blow-up that stays under the floor never alarms (µs-scale
// jitter), while a shift clearing the floor and the relative rules
// always does — for arbitrary baselines below the floor.
func TestBaselinePropertyMinDeltaFloor(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const floor = 0.005 // 5ms
	for trial := 0; trial < 40; trial++ {
		v := math.Pow(10, -6+2.5*r.Float64()) // 1µs .. ~300µs, all below floor
		f := newBaselineFixture(t, Rule{Value: 3, Factor: 2, MinSamples: 1, MinDeltaS: floor})
		for i := 0; i < 4; i++ {
			f.feed(10, v)
		}
		// A 4× relative regression that stays under the absolute floor:
		// jitter, not a regression.
		under := math.Min(v*4, v+floor*0.9)
		if f.feed(10, under) {
			t.Fatalf("v=%g: sub-floor 4× interval flagged", v)
		}
		// Clearing the floor (and trivially the relative rules) must flag.
		if !f.feed(10, v+floor*10) {
			t.Fatalf("v=%g: floor-clearing step not flagged", v)
		}
		// IsSlow honors the same floor.
		if f.s.IsSlow("/api/stats", v+floor*0.5) {
			t.Fatalf("v=%g: IsSlow judged a sub-floor trace slow", v)
		}
		if !f.s.IsSlow("/api/stats", v+floor*20) {
			t.Fatalf("v=%g: IsSlow missed a floor-clearing trace", v)
		}
	}
}

// TestBaselinePropertyEWMAConverges: after a level shift the baseline
// converges geometrically to the new level — the rule adapts instead
// of alarming forever on a persistent (accepted) regression.
func TestBaselinePropertyEWMAConverges(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		v := randLatency(r)
		f := newBaselineFixture(t, Rule{Value: 3, Factor: 1.5, MinSamples: 1})
		f.feed(5, v)
		shifted := v * 10
		prevGap := math.Inf(1)
		for i := 0; i < 100; i++ {
			f.feed(5, shifted)
			gap := math.Abs(f.series().mean - shifted)
			if gap > prevGap+shifted*1e-12 {
				t.Fatalf("v=%g: gap grew at interval %d: %g > %g", v, i, gap, prevGap)
			}
			prevGap = gap
		}
		if prevGap > shifted*1e-3 {
			t.Fatalf("v=%g: baseline %g has not converged to %g after 100 intervals",
				v, f.series().mean, shifted)
		}
		if f.series().Firing {
			t.Fatalf("v=%g: still firing after the baseline converged", v)
		}
	}
}
