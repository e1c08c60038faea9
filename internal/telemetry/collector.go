package telemetry

import (
	"hash/fnv"
	"sync"
	"sync/atomic"
)

// TraceNode is the exportable form of one finished span: plain data,
// detached from the span pool, safe to hold indefinitely. StartNS/EndNS
// are monotonic nanoseconds since process start (see EpochWall).
type TraceNode struct {
	Name     string       `json:"name"`
	StartNS  int64        `json:"start_ns"`
	EndNS    int64        `json:"end_ns"`
	TraceID  string       `json:"trace_id,omitempty"` // set on roots of request trees
	Attrs    []Attr       `json:"attrs,omitempty"`
	Children []*TraceNode `json:"children,omitempty"`
}

// DurNS returns the node's duration in nanoseconds.
func (n *TraceNode) DurNS() int64 { return n.EndNS - n.StartNS }

// Retention reasons recorded on retained traces.
const (
	ReasonAll  = "all"  // no sampling policy installed
	ReasonHead = "head" // kept by head-based probabilistic sampling
	ReasonSlow = "slow" // kept by tail retention: slower than the baseline
)

// RetainedTrace is one trace kept by the Collector, annotated with why
// it survived sampling. Seq increases monotonically across the
// Collector's lifetime, so callers can detect eviction gaps.
type RetainedTrace struct {
	Root     *TraceNode `json:"root"`
	TraceID  string     `json:"trace_id,omitempty"`
	Reason   string     `json:"reason"`
	DurNS    int64      `json:"dur_ns"`
	Seq      uint64     `json:"seq"`
	exported bool       // already drained by TakeSlow
}

// Policy is a Collector's sampling policy: head-based probabilistic
// sampling plus tail retention of traces slower than a rolling
// baseline. With no policy installed every finished trace is retained
// (bounded only by the ring capacity).
type Policy struct {
	// HeadProbability in [0, 1] keeps that fraction of traces,
	// decided by a hash of the trace ID (or of the root name and start
	// time when the tree has no request identity) — deterministic per
	// trace, so multi-span trees never tear.
	HeadProbability float64
	// Judge reports whether a finished root (name, seconds) is slow
	// against the rolling baseline; slow traces are always retained,
	// whatever the head decision. monitor.New installs its sampler's
	// IsSlow here, which judges against the monitor's latency-baseline
	// rules.
	Judge func(name string, seconds float64) bool
}

// decide returns whether to keep a trace and the retention reason.
func (p *Policy) decide(root *TraceNode) (string, bool) {
	if p == nil {
		return ReasonAll, true
	}
	if p.Judge != nil && p.Judge(root.Name, float64(root.DurNS())/1e9) {
		return ReasonSlow, true
	}
	if p.HeadProbability >= 1 {
		return ReasonHead, true
	}
	if p.HeadProbability > 0 {
		h := fnv.New64a()
		if root.TraceID != "" {
			h.Write([]byte(root.TraceID))
		} else {
			h.Write([]byte(root.Name))
			var b [8]byte
			for i, v := 0, uint64(root.StartNS); i < 8; i++ {
				b[i] = byte(v >> (8 * i))
			}
			h.Write(b[:])
		}
		// Uniform in [0,1) from the top 53 bits of the hash.
		u := float64(h.Sum64()>>11) / (1 << 53)
		if u < p.HeadProbability {
			return ReasonHead, true
		}
	}
	return "", false
}

// Collector retains finished span trees in a bounded ring buffer.
// Install one with SetCollector; every root span that Ends while it is
// installed is converted to a TraceNode tree and offered to the
// sampling policy. MaxTrees bounds retention (the ring overwrites the
// oldest trace once full); 0 selects DefaultMaxTrees.
type Collector struct {
	MaxTrees int
	// Policy selects which finished traces are retained. Nil keeps
	// everything. Set before the collector is installed.
	Policy *Policy

	mu         sync.Mutex
	ring       []RetainedTrace // ring storage, capacity fixed at first consume
	head       int             // index of the oldest retained trace
	n          int             // retained count (≤ len(ring))
	seq        uint64          // next sequence number
	dropped    int64           // evicted by the ring bound
	sampledOut int64           // rejected by the sampling policy
}

// DefaultMaxTrees bounds a Collector's retained root trees.
const DefaultMaxTrees = 4096

// sink is the installed collector (nil when tracing without retention).
var sink atomic.Pointer[Collector]

// SetCollector installs c (nil uninstalls) and returns the previous one.
func SetCollector(c *Collector) *Collector { return sink.Swap(c) }

// Retention metrics (Default registry): how the policy is behaving.
var (
	mRetained = map[string]*Counter{
		ReasonAll:  Default.Counter("thicket_trace_retained_total", "Traces retained by the collector, by reason.", "reason", ReasonAll),
		ReasonHead: Default.Counter("thicket_trace_retained_total", "Traces retained by the collector, by reason.", "reason", ReasonHead),
		ReasonSlow: Default.Counter("thicket_trace_retained_total", "Traces retained by the collector, by reason.", "reason", ReasonSlow),
	}
	mSampledOut = Default.Counter("thicket_trace_sampled_out_total", "Traces rejected by the sampling policy.")
)

// convert deep-copies a finished span tree into TraceNodes.
func convert(s *Span) *TraceNode {
	n := &TraceNode{
		Name:    s.name,
		StartNS: s.startNS,
		EndNS:   s.endNS,
		TraceID: s.traceID,
	}
	if len(s.attrs) > 0 {
		n.Attrs = append([]Attr(nil), s.attrs...)
	}
	for _, c := range s.children {
		n.Children = append(n.Children, convert(c))
	}
	return n
}

// capacity resolves the ring bound.
func (c *Collector) capacity() int {
	if c.MaxTrees > 0 {
		return c.MaxTrees
	}
	return DefaultMaxTrees
}

// consume offers a finished root tree to the sampling policy and, when
// kept, appends it to the ring (overwriting the oldest beyond the
// bound).
func (c *Collector) consume(root *Span) {
	n := convert(root)
	reason, keep := c.Policy.decide(n)
	if !keep {
		mSampledOut.Inc()
		c.mu.Lock()
		c.sampledOut++
		c.mu.Unlock()
		return
	}
	if m, ok := mRetained[reason]; ok {
		m.Inc()
	}
	c.mu.Lock()
	if c.ring == nil {
		c.ring = make([]RetainedTrace, c.capacity())
	}
	rt := RetainedTrace{Root: n, TraceID: n.TraceID, Reason: reason, DurNS: n.DurNS(), Seq: c.seq}
	c.seq++
	if c.n < len(c.ring) {
		c.ring[(c.head+c.n)%len(c.ring)] = rt
		c.n++
	} else {
		c.ring[c.head] = rt // overwrite the oldest
		c.head = (c.head + 1) % len(c.ring)
		c.dropped++
	}
	c.mu.Unlock()
}

// Roots returns the retained trees in completion order (oldest first).
func (c *Collector) Roots() []*TraceNode {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*TraceNode, 0, c.n)
	for i := 0; i < c.n; i++ {
		out = append(out, c.ring[(c.head+i)%len(c.ring)].Root)
	}
	return out
}

// Retained returns the retained traces with their sampling annotations,
// in completion order (oldest first).
func (c *Collector) Retained() []RetainedTrace {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]RetainedTrace, 0, c.n)
	for i := 0; i < c.n; i++ {
		out = append(out, c.ring[(c.head+i)%len(c.ring)])
	}
	return out
}

// TakeSlow returns up to max tail-retained ("slow") traces that have
// not been taken before, oldest first, marking them taken. The traces
// stay in the ring for /debug/traces inspection until evicted. max <= 0
// means no limit. This is the feed of the self-profile dogfood loop,
// which the monitor's tick drains.
func (c *Collector) TakeSlow(max int) []RetainedTrace {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []RetainedTrace
	for i := 0; i < c.n; i++ {
		idx := (c.head + i) % len(c.ring)
		rt := &c.ring[idx]
		if rt.Reason != ReasonSlow || rt.exported {
			continue
		}
		rt.exported = true
		out = append(out, *rt)
		if max > 0 && len(out) >= max {
			break
		}
	}
	return out
}

// Len reports the number of retained trees.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Dropped reports trees evicted by the retention bound.
func (c *Collector) Dropped() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// SampledOut reports trees rejected by the sampling policy.
func (c *Collector) SampledOut() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sampledOut
}

// Reset drops every retained tree and zeroes the counters.
func (c *Collector) Reset() {
	c.mu.Lock()
	c.ring, c.head, c.n, c.dropped, c.sampledOut = nil, 0, 0, 0, 0
	c.mu.Unlock()
}
