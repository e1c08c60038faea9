package telemetry

import (
	"context"
	"sort"
	"strings"
	"testing"
)

func TestParseTraceparentRoundTrip(t *testing.T) {
	in := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	tc, err := ParseTraceparent(in)
	if err != nil {
		t.Fatal(err)
	}
	if tc.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("TraceID = %q", tc.TraceID)
	}
	if tc.SpanID != "00f067aa0ba902b7" {
		t.Errorf("SpanID = %q", tc.SpanID)
	}
	if !tc.Sampled {
		t.Error("Sampled = false, want true")
	}
	if got := tc.Traceparent(); got != in {
		t.Errorf("Traceparent() = %q, want %q", got, in)
	}
	if un, err := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00"); err != nil || un.Sampled {
		t.Errorf("flags 00 parsed as (%+v, %v), want unsampled", un, err)
	}
}

// malformedTraceparents are headers ParseTraceparent must reject, by
// case name.
func malformedTraceparents() map[string]string {
	const (
		tid = "4bf92f3577b34da6a3ce929d0e0e4736"
		sid = "00f067aa0ba902b7"
	)
	return map[string]string{
		"empty":                     "",
		"whitespace only":           "   \t ",
		"garbage":                   "not-a-header",
		"single dash":               "-",
		"all fields empty":          "---",
		"missing flags":             "00-" + tid + "-" + sid,
		"all-zero trace id":         "00-00000000000000000000000000000000-" + sid + "-01",
		"all-zero span id":          "00-" + tid + "-0000000000000000-01",
		"uppercase trace id":        "00-4BF92F3577B34DA6A3CE929D0E0E4736-" + sid + "-01",
		"uppercase span id":         "00-" + tid + "-00F067AA0BA902B7-01",
		"mixed-case trace id":       "00-4bf92F3577b34da6a3ce929d0e0e4736-" + sid + "-01",
		"reserved version ff":       "ff-" + tid + "-" + sid + "-01",
		"extra field on version 00": "00-" + tid + "-" + sid + "-01-xx",
		"trace id too short":        "00-4bf92f3577b34da6a3ce929d0e0e47-" + sid + "-01",
		"trace id too long":         "00-" + tid + "ab-" + sid + "-01",
		"span id too short":         "00-" + tid + "-00f067aa0ba902-01",
		"span id too long":          "00-" + tid + "-" + sid + "ab-01",
		"non-hex version":           "zz-" + tid + "-" + sid + "-01",
		"one-char version":          "0-" + tid + "-" + sid + "-01",
		"three-char version":        "000-" + tid + "-" + sid + "-01",
		"uppercase version":         "AB-" + tid + "-" + sid + "-01",
		"non-hex trace id":          "00-4bf92f3577b34da6a3ce929d0e0e47gg-" + sid + "-01",
		"non-hex span id":           "00-" + tid + "-00f067aa0ba902zz-01",
		"trace id with space":       "00-4bf92f3577b34da6a3ce929d0e0e47 6-" + sid + "-01",
		"one-char flags":            "00-" + tid + "-" + sid + "-1",
		"three-char flags":          "00-" + tid + "-" + sid + "-011",
		"non-hex flags":             "00-" + tid + "-" + sid + "-gg",
		"uppercase flags":           "00-" + tid + "-" + sid + "-0F",
		"empty version":             "-" + tid + "-" + sid + "-01",
		"empty trace id":            "00--" + sid + "-01",
		"empty span id":             "00-" + tid + "--01",
		"empty flags":               "00-" + tid + "-" + sid + "-",
		"interior whitespace":       "00- " + tid + "-" + sid + "-01",
		"null byte in trace id":     "00-4bf92f3577b34da6a3ce929d0e0e473\x00-" + sid + "-01",
		"unicode hex lookalike":     "00-4bf92f3577b34da6a3ce929d0e0e473а-" + sid + "-01",
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	for name, h := range malformedTraceparents() {
		if tc, err := ParseTraceparent(h); err == nil {
			t.Errorf("%s: ParseTraceparent(%q) = %+v, want error", name, h, tc)
		}
	}
}

// acceptedTraceparents are the lenient edges ParseTraceparent accepts,
// by case name, with the sampled flag each carries: surrounding
// whitespace is trimmed and any hex flag byte is fine (only bit 0 is
// the sampled flag).
func acceptedTraceparents() map[string]struct {
	in      string
	sampled bool
} {
	const (
		tid = "4bf92f3577b34da6a3ce929d0e0e4736"
		sid = "00f067aa0ba902b7"
	)
	return map[string]struct {
		in      string
		sampled bool
	}{
		"surrounding whitespace": {"  00-" + tid + "-" + sid + "-01\t", true},
		"flags ff":               {"00-" + tid + "-" + sid + "-ff", true},
		"flags fe":               {"00-" + tid + "-" + sid + "-fe", false},
		"future version":         {"cc-" + tid + "-" + sid + "-01", true},
	}
}

// TestParseTraceparentAccepts pins acceptedTraceparents.
func TestParseTraceparentAccepts(t *testing.T) {
	const (
		tid = "4bf92f3577b34da6a3ce929d0e0e4736"
		sid = "00f067aa0ba902b7"
	)
	for name, tc := range acceptedTraceparents() {
		got, err := ParseTraceparent(tc.in)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if got.TraceID != tid || got.SpanID != sid || got.Sampled != tc.sampled {
			t.Errorf("%s: parsed %+v", name, got)
		}
	}
}

// FuzzTraceparent: no header may panic ParseTraceparent. One it accepts
// is a valid context that its own Traceparent parses back to, and whose
// Child keeps the trace ID and is valid.
func FuzzTraceparent(f *testing.F) {
	var seeds []string
	for _, h := range malformedTraceparents() {
		seeds = append(seeds, h)
	}
	for _, tc := range acceptedTraceparents() {
		seeds = append(seeds, tc.in)
	}
	sort.Strings(seeds) // each seed#N names the same header every run
	for _, h := range seeds {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, h string) {
		tc, err := ParseTraceparent(h)
		if err != nil {
			return
		}
		if !tc.Valid() {
			t.Fatalf("ParseTraceparent(%q) accepted an invalid context %+v", h, tc)
		}
		if again, err := ParseTraceparent(tc.Traceparent()); err != nil || again != tc {
			t.Fatalf("ParseTraceparent(%q) = %+v, but its Traceparent %q parses as (%+v, %v)", h, tc, tc.Traceparent(), again, err)
		}
		if child := tc.Child(); child.TraceID != tc.TraceID || !child.Valid() {
			t.Fatalf("ParseTraceparent(%q) = %+v has child %+v", h, tc, child)
		}
	})
}

func TestParseTraceparentFutureVersion(t *testing.T) {
	// Future versions may append fields; the spec says parse the known
	// prefix.
	tc, err := ParseTraceparent("cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra")
	if err != nil {
		t.Fatalf("future version rejected: %v", err)
	}
	if tc.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" || !tc.Sampled {
		t.Errorf("future version parsed as %+v", tc)
	}
}

func TestNewTraceContext(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 64; i++ {
		tc := NewTraceContext()
		if !tc.Valid() {
			t.Fatalf("NewTraceContext() invalid: %+v", tc)
		}
		if !tc.Sampled {
			t.Fatal("new root context not sampled")
		}
		if seen[tc.TraceID] {
			t.Fatalf("duplicate trace ID %s", tc.TraceID)
		}
		seen[tc.TraceID] = true
		if _, err := ParseTraceparent(tc.Traceparent()); err != nil {
			t.Fatalf("self-emitted traceparent does not parse: %v", err)
		}
	}
}

func TestTraceContextChild(t *testing.T) {
	tc := NewTraceContext()
	child := tc.Child()
	if child.TraceID != tc.TraceID {
		t.Error("child changed the trace ID")
	}
	if child.SpanID == tc.SpanID {
		t.Error("child kept the parent span ID")
	}
	if !strings.HasPrefix(child.Traceparent(), "00-"+tc.TraceID+"-") {
		t.Errorf("child traceparent %q", child.Traceparent())
	}
}

// TestTraceContextChildInvalid: deriving a child from an invalid
// context (zero value, malformed or all-zero IDs) must mint a fresh
// valid root rather than propagate the broken trace ID into outbound
// traceparent headers.
func TestTraceContextChildInvalid(t *testing.T) {
	for name, tc := range map[string]TraceContext{
		"zero value":        {},
		"all-zero trace id": {TraceID: strings.Repeat("0", 32), SpanID: "00f067aa0ba902b7"},
		"all-zero span id":  {TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", SpanID: strings.Repeat("0", 16)},
		"short trace id":    {TraceID: "abc", SpanID: "00f067aa0ba902b7"},
		"uppercase hex":     {TraceID: "4BF92F3577B34DA6A3CE929D0E0E4736", SpanID: "00f067aa0ba902b7"},
	} {
		child := tc.Child()
		if !child.Valid() {
			t.Errorf("%s: child invalid: %+v", name, child)
			continue
		}
		if child.TraceID == tc.TraceID {
			t.Errorf("%s: child kept the broken trace ID %q", name, tc.TraceID)
		}
		if _, err := ParseTraceparent(child.Traceparent()); err != nil {
			t.Errorf("%s: child traceparent does not parse: %v", name, err)
		}
	}
	// Two children of the zero value are distinct traces, not one.
	a, b := TraceContext{}.Child(), TraceContext{}.Child()
	if a.TraceID == b.TraceID {
		t.Error("children of invalid contexts share a trace ID")
	}
}

func TestTraceContextOnContext(t *testing.T) {
	if _, ok := TraceFromContext(context.Background()); ok {
		t.Error("empty context reported a trace")
	}
	tc := NewTraceContext()
	ctx := ContextWithTrace(context.Background(), tc)
	got, ok := TraceFromContext(ctx)
	if !ok || got != tc {
		t.Errorf("TraceFromContext = (%+v, %v), want (%+v, true)", got, ok, tc)
	}
}

// TestSpanTraceID checks trace IDs resolve through the parent chain:
// a child opened on any goroutine reports the root's trace ID.
func TestSpanTraceID(t *testing.T) {
	withSpans(t)
	c := withCollector(t)

	root := StartOp("http /api/x")
	root.SetTraceID("4bf92f3577b34da6a3ce929d0e0e4736")
	child := root.StartChild("store.Load")
	grand := child.StartChild("store.readBlock")
	for _, sp := range []*Span{root, child, grand} {
		if got := sp.TraceID(); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
			t.Errorf("span %q TraceID = %q", sp.Name(), got)
		}
	}
	// Setting through a descendant also lands on the root.
	grand.SetTraceID("aaaa2f3577b34da6a3ce929d0e0e4736")
	if got := root.TraceID(); got != "aaaa2f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("SetTraceID via child: root TraceID = %q", got)
	}
	grand.End()
	child.End()
	root.End()

	roots := c.Roots()
	if len(roots) != 1 {
		t.Fatalf("%d trees collected", len(roots))
	}
	if roots[0].TraceID != "aaaa2f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("exported root TraceID = %q", roots[0].TraceID)
	}
	// Nil spans: the whole trace-ID method set must be no-ops.
	var nilSpan *Span
	nilSpan.SetTraceID("x")
	if nilSpan.TraceID() != "" {
		t.Error("nil span TraceID not empty")
	}
}
