package monitor

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// mkRing builds a ring of 1s-spaced samples where metric "m" takes the
// given values (NaN-free; a negative sentinel is still a value).
func mkRing(values ...float64) []Sample {
	ring := make([]Sample, len(values))
	for i, v := range values {
		ring[i] = Sample{
			UnixNS: int64(i+1) * 1e9,
			Values: map[string]float64{"m": v},
		}
	}
	return ring
}

func mkStates(rules ...Rule) []*ruleState {
	out := make([]*ruleState, len(rules))
	for i, r := range rules {
		out[i] = &ruleState{Rule: r.withDefaults()}
	}
	return out
}

// TestEmptyRingFiresNothing: rule evaluation against an empty ring is
// a no-op for every kind — no transitions, no state movement.
func TestEmptyRingFiresNothing(t *testing.T) {
	states := mkStates(
		Rule{Name: "t", Kind: KindThreshold, Metric: "m", Op: ">", Value: 1, ForTicks: 1},
		Rule{Name: "r", Kind: KindRate, Metric: "m", Op: ">", Value: 1, ForTicks: 1},
		Rule{Name: "a", Kind: KindAbsence, Metric: "m", ForTicks: 1, WindowTicks: 1},
	)
	if got := evalRules(states, nil, 1, 1); len(got) != 0 {
		t.Fatalf("empty ring produced transitions: %+v", got)
	}
	for _, st := range states {
		if st.Firing || st.breachRun != 0 {
			t.Errorf("rule %s moved state on an empty ring: %+v", st.Name, st)
		}
	}
}

// TestAbsenceWarmup: an absence rule must stay silent while the ring
// is shorter than its window (sampler warmup), then fire once the
// metric has been genuinely missing for the whole window.
func TestAbsenceWarmup(t *testing.T) {
	states := mkStates(Rule{
		Name: "gone", Kind: KindAbsence, Metric: "never_there",
		WindowTicks: 3, ForTicks: 2,
	})
	var ring []Sample
	var transitions []Transition
	for tick := int64(1); tick <= 6; tick++ {
		ring = append(ring, Sample{UnixNS: tick * 1e9, Values: map[string]float64{"m": 1}})
		got := evalRules(states, ring, tick, tick*1e9)
		transitions = append(transitions, got...)
		if tick < 3 && states[0].breachRun != 0 {
			t.Fatalf("tick %d: absence rule breached during warmup (ring len %d < window 3)", tick, len(ring))
		}
	}
	// Window satisfied from tick 3; ForTicks=2 → fire at tick 4.
	if len(transitions) != 1 || !transitions[0].Firing || transitions[0].Tick != 4 {
		t.Fatalf("want one firing transition at tick 4, got %+v", transitions)
	}
}

// TestCounterResetRateIsZero: the sampler's derived :rate series must
// read zero — never negative, never NaN — on the tick where a counter
// went backwards (process restart of a scraped subsystem).
func TestCounterResetRateIsZero(t *testing.T) {
	s, err := New(Options{Registry: newTestRegistry(), Rules: []Rule{}})
	if err != nil {
		t.Fatal(err)
	}
	c := s.opts.Registry.Counter("test_total", "test counter")
	c.Add(100)
	s.Tick(unix(1))
	c.Add(50)
	s.Tick(unix(2))
	w := s.Window(0, []string{"test_total"})
	if got := w.Series["test_total"+RateSuffix].Last; got != 50 {
		t.Fatalf("rate after normal increment = %v, want 50", got)
	}

	// Simulate a reset: a fresh sampler sees the counter "drop". The
	// registry counter itself is monotonic, so drive the guard directly
	// through prevState.
	s.mu.Lock()
	s.prev.counters["test_total"] = 1e6 // pretend the last scrape was higher
	s.mu.Unlock()
	c.Add(10)
	s.Tick(unix(3))
	w = s.Window(0, []string{"test_total"})
	got := w.Series["test_total"+RateSuffix].Last
	if got != 0 {
		t.Fatalf("rate across counter reset = %v, want 0 (never negative)", got)
	}
	for _, p := range w.Series["test_total"+RateSuffix].Points {
		if p.Value < 0 || p.Value != p.Value {
			t.Fatalf("rate series contains negative/NaN point: %v", p.Value)
		}
	}
}

// TestHysteresisNoFlap: a value alternating across the threshold
// boundary must produce zero transitions — each clean tick resets the
// breach run and each breach resets the ok run, so neither side of the
// hysteresis ever triggers.
func TestHysteresisNoFlap(t *testing.T) {
	states := mkStates(Rule{
		Name: "flappy", Kind: KindThreshold, Metric: "m",
		Op: ">", Value: 10, ForTicks: 2, ClearTicks: 2,
	})
	var ring []Sample
	var transitions []Transition
	// Alternate 11 (breach), 9 (ok), 11, 9, ... for 20 ticks.
	for tick := int64(1); tick <= 20; tick++ {
		v := 9.0
		if tick%2 == 1 {
			v = 11.0
		}
		ring = append(ring, Sample{UnixNS: tick * 1e9, Values: map[string]float64{"m": v}})
		transitions = append(transitions, evalRules(states, ring, tick, tick*1e9)...)
	}
	if len(transitions) != 0 {
		t.Fatalf("boundary flapping produced transitions: %+v", transitions)
	}
	// The exact boundary value is not a breach for op ">".
	ring = append(ring, Sample{UnixNS: 21e9, Values: map[string]float64{"m": 10}})
	evalRules(states, ring, 21, 21e9)
	if states[0].breachRun != 0 {
		t.Fatal("value == threshold counted as a breach for op >")
	}
}

// TestFireThenResolve walks the full lifecycle: sustained breach fires
// after ForTicks, sustained recovery resolves after ClearTicks.
func TestFireThenResolve(t *testing.T) {
	states := mkStates(Rule{
		Name: "hot", Kind: KindThreshold, Metric: "m",
		Op: ">", Value: 10, ForTicks: 3, ClearTicks: 2,
	})
	values := []float64{20, 20, 20 /* fire @3 */, 20, 5, 5 /* resolve @6 */, 5}
	var ring []Sample
	var transitions []Transition
	for i, v := range values {
		tick := int64(i + 1)
		ring = append(ring, Sample{UnixNS: tick * 1e9, Values: map[string]float64{"m": v}})
		transitions = append(transitions, evalRules(states, ring, tick, tick*1e9)...)
	}
	if len(transitions) != 2 {
		t.Fatalf("want fire+resolve, got %+v", transitions)
	}
	if !transitions[0].Firing || transitions[0].Tick != 3 {
		t.Errorf("fire transition = %+v, want firing at tick 3", transitions[0])
	}
	if transitions[1].Firing || transitions[1].Tick != 6 {
		t.Errorf("resolve transition = %+v, want resolved at tick 6", transitions[1])
	}
	if states[0].firedTotal != 1 {
		t.Errorf("firedTotal = %d, want 1", states[0].firedTotal)
	}
}

// TestRateRule checks the rate kind's windowed derivative, including
// the warmup guard (no verdict until WindowTicks+1 samples exist).
func TestRateRule(t *testing.T) {
	states := mkStates(Rule{
		Name: "growing", Kind: KindRate, Metric: "m",
		Op: ">", Value: 5, WindowTicks: 2, ForTicks: 1,
	})
	// 1s-spaced samples growing by 10/s: rate over 2 ticks = 10.
	ring := mkRing(0, 10, 20)
	if got := evalRules(states, ring[:1], 1, 1e9); len(got) != 0 {
		t.Fatalf("rate rule fired during warmup: %+v", got)
	}
	if got := evalRules(states, ring, 3, 3e9); len(got) != 1 || !got[0].Firing {
		t.Fatalf("want firing transition at rate 10 > 5, got %+v", got)
	}
	if states[0].lastValue != 10 {
		t.Errorf("rate = %v, want 10", states[0].lastValue)
	}
}

// TestLoadRules round-trips a rules file and rejects malformed ones.
func TestLoadRules(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "rules.json")
	os.WriteFile(good, []byte(`[
		{"name": "heap", "kind": "rate", "metric": "go_heap_inuse_bytes", "value": 1048576},
		{"name": "quiet", "kind": "absence", "metric": "thicket_http_requests_total", "window_ticks": 4},
		{"name": "lat", "kind": "baseline", "metric": "thicket_http_request_seconds",
		 "value": 3, "factor": 1.5, "min_samples": 5, "min_delta_s": 0.005, "for_ticks": 1}
	]`), 0o644)
	rules, err := LoadRules(good)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 3 || rules[0].Op != ">" || rules[0].ForTicks != 3 || rules[1].WindowTicks != 4 {
		t.Fatalf("defaults not applied: %+v", rules)
	}
	if b := rules[2]; b.Kind != KindBaseline || b.Factor != 1.5 || b.MinSamples != 5 || b.MinDeltaS != 0.005 || b.ClearTicks != 1 {
		t.Fatalf("baseline fields not parsed: %+v", b)
	}

	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte(`[{"name": "x", "kind": "sideways", "metric": "m"}]`), 0o644)
	if _, err := LoadRules(bad); err == nil {
		t.Fatal("bad kind accepted")
	}
	if _, err := LoadRules(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	os.WriteFile(bad, []byte(`[{"name": "x", "kind": "baseline", "metric": "m", "op": "<"}]`), 0o644)
	if _, err := LoadRules(bad); err == nil {
		t.Fatal("baseline rule with op < accepted")
	}
}

// FuzzLoadRules: no rules file may panic LoadRules. A rule set it
// accepts either fails New on an 8-sample ring or yields a sampler that
// survives three ticks and an Alerts read.
func FuzzLoadRules(f *testing.F) {
	defaults, err := json.Marshal(DefaultRules())
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		string(defaults),
		// TestLoadRules' rules, good and bad.
		`[{"name": "heap", "kind": "rate", "metric": "go_heap_inuse_bytes", "value": 1048576}]`,
		`[{"name": "quiet", "kind": "absence", "metric": "thicket_http_requests_total", "window_ticks": 4}]`,
		`[{"name": "lat", "kind": "baseline", "metric": "thicket_http_request_seconds", "value": 3, "factor": 1.5, "min_samples": 5, "min_delta_s": 0.005, "for_ticks": 1}]`,
		`[{"name": "x", "kind": "sideways", "metric": "m"}]`,
		`[{"name": "x", "kind": "baseline", "metric": "m", "op": "<"}]`,
		// A window the ring cannot hold, and files holding no rules.
		`[{"name": "r", "kind": "rate", "metric": "m", "window_ticks": 9}]`,
		`[]`, `null`, ``, `{}`,
	} {
		f.Add([]byte(seed))
	}
	path := filepath.Join(f.TempDir(), "rules.json")
	f.Fuzz(func(t *testing.T, raw []byte) {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		rules, err := LoadRules(path)
		if err != nil {
			return
		}
		s, err := New(Options{Registry: newTestRegistry(), RingSize: 8, Rules: rules})
		if err != nil {
			return
		}
		defer s.Close()
		for sec := int64(1); sec <= 3; sec++ {
			s.Tick(unix(sec))
		}
		s.Alerts()
	})
}

// TestRulesThatCanNeverFireRejected: a rate rule needs WindowTicks+1
// samples and an absence rule WindowTicks, so New must refuse either
// when the ring can never hold that many, naming the rule.
func TestRulesThatCanNeverFireRejected(t *testing.T) {
	for _, tc := range []struct {
		rule Rule
		ring int
		ok   bool
	}{
		{Rule{Name: "r", Kind: KindRate, Metric: "m", WindowTicks: 4}, 4, false},
		{Rule{Name: "r", Kind: KindRate, Metric: "m", WindowTicks: 9}, 4, false},
		{Rule{Name: "r", Kind: KindRate, Metric: "m", WindowTicks: 3}, 4, true},
		{Rule{Name: "a", Kind: KindAbsence, Metric: "m", WindowTicks: 5}, 4, false},
		{Rule{Name: "a", Kind: KindAbsence, Metric: "m", WindowTicks: 4}, 4, true},
		{Rule{Name: "t", Kind: KindThreshold, Metric: "m", WindowTicks: 99}, 4, true},
		{Rule{Name: "b", Kind: KindBaseline, Metric: "m", WindowTicks: 99}, 4, true},
	} {
		_, err := New(Options{Registry: newTestRegistry(), RingSize: tc.ring, Rules: []Rule{tc.rule}})
		if tc.ok && err != nil {
			t.Errorf("%s window %d ring %d: %v", tc.rule.Kind, tc.rule.WindowTicks, tc.ring, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), `"`+tc.rule.Name+`"`)) {
			t.Errorf("%s window %d ring %d: err %v, want one naming rule %q",
				tc.rule.Kind, tc.rule.WindowTicks, tc.ring, err, tc.rule.Name)
		}
	}
	// The shipped set on a 4-sample ring: heap-growth (rate over 5
	// ticks) is the first rule that could never fire.
	_, err := New(Options{Registry: newTestRegistry(), RingSize: 4})
	if err == nil || !strings.Contains(err.Error(), `"heap-growth"`) {
		t.Fatalf("default rules on a 4-sample ring: %v", err)
	}
}

// TestDefaultRulesValid: every shipped rule must pass its own
// validation with defaults applied.
func TestDefaultRulesValid(t *testing.T) {
	for _, r := range DefaultRules() {
		if err := r.withDefaults().validate(); err != nil {
			t.Errorf("default rule %q invalid: %v", r.Name, err)
		}
	}
	if _, err := New(Options{Registry: newTestRegistry()}); err != nil {
		t.Errorf("sampler with default rules: %v", err)
	}
}
