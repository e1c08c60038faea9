package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataframe"
	"repro/internal/plan"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// reconcileTolerance is how far, as a share of handler time, the sum of
// the replayed layer times of adhoc requests may fall from the handler
// time the same requests took when served.
const reconcileTolerance = 0.25

// replayOps is how many adhoc ops the traced run replays layer by
// layer, each right after serving it.
const replayOps = 150

// span is one of the benchmark's own spans. Spans of one op share Op;
// times are nanoseconds on the program's span clock, so program spans
// can be placed inside them.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// spanClock reads the clock program spans are stamped with.
func spanClock(t time.Time) int64 { return int64(t.Sub(telemetry.EpochWall())) }

// interval is a [start, end) stretch of the span clock.
type interval struct{ start, end int64 }

// tracer records the traced run: the benchmark's spans, the handler
// and ingest-sink timings it interposes, and the program's own spans,
// which it aggregates by name.
type tracer struct {
	spans []span

	// handled carries each served request's handler interval to the
	// client, which sends one request at a time.
	handled chan interval
	active  atomic.Bool

	mu      sync.Mutex
	submits []interval // SubmitBytes calls of the current request

	byName     map[string]*nameAgg
	kernels    []interval // dataframe.* roots seen since the last drain
	col        *telemetry.Collector
	opStart    int64
	opEnd      int64
	reqSpans   []int  // request span IDs of the current op
	opHandlers []span // handler spans of the current op, in request order
}

// nameAgg aggregates program spans of one name.
type nameAgg struct {
	count int
	ns    int64
}

func newTracer() *tracer {
	return &tracer{
		handled: make(chan interval, 1),
		byName:  map[string]*nameAgg{},
		col:     &telemetry.Collector{MaxTrees: 1 << 16},
	}
}

func (t *tracer) add(s span) int {
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// wrap interposes on ServeHTTP and on the ingest sink.
func (t *tracer) wrap() *wrapHandler {
	return &wrapHandler{
		handler: func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				start := spanClock(time.Now())
				h.ServeHTTP(w, r)
				end := spanClock(time.Now())
				if t.active.Load() {
					select {
					case t.handled <- interval{start, end}:
					default: // the client gave up on the previous one
					}
				}
			})
		},
		sink: func(s server.IngestSink) server.IngestSink { return timedSink{s, t} },
	}
}

// timedSink times SubmitBytes.
type timedSink struct {
	next server.IngestSink
	t    *tracer
}

func (s timedSink) SubmitBytes(payload []byte) error {
	start := spanClock(time.Now())
	err := s.next.SubmitBytes(payload)
	end := spanClock(time.Now())
	s.t.mu.Lock()
	s.t.submits = append(s.t.submits, interval{start, end})
	s.t.mu.Unlock()
	return err
}

// start turns on the program's spans with a collector and starts
// pairing served requests with client requests.
func (t *tracer) start() {
	telemetry.SetCollector(t.col)
	telemetry.SetEnabled(true)
	t.active.Store(true)
}

// traced is the per-layer run. It times the set-ups, runs the workload
// once untraced and once traced on fresh set-ups, replays served
// requests layer by layer, and reports per-layer metrics.
func (r *measurement) traced() (*report, error) {
	inst, times, err := r.setUps()
	if err != nil {
		return nil, err
	}
	ref := r.measurePhase(inst, nil)
	if err := r.discard(inst); err != nil {
		return nil, err
	}

	t := newTracer()
	if inst, _, err = r.setUp(t.wrap()); err != nil {
		return nil, err
	}
	var peakL0 float64
	replays := 0
	switch r.cfg.workload {
	case "dashboard":
		replays = 1 // the first refresh, when every panel missed the cache
	case "adhoc":
		replays = min(replayOps, len(r.ops))
	}
	layers := map[string]int64{}
	var kernel, handlerNS, layerNS int64
	var stages plan.StageTimes
	var replayErr error
	var wrong []string
	nReplayed := 0
	// afterOp replays the op just served while the store's caches are
	// as they were when it was served, then samples the ingest
	// pipeline. A collection first gives every replay the same heap to
	// start from: checking the op's answers allocates, and replays that
	// started inside the collection this set off ran up to a fifth
	// slower than the handler, by a varying amount.
	afterOp := func(op int) {
		if op < replays {
			runtime.GC()
		}
		for j := 0; op < replays && j < len(r.ops[op]) && replayErr == nil; j++ {
			rq := r.ops[op][j]
			rp, err := t.replay(op, inst, rq)
			if err != nil {
				replayErr = fmt.Errorf("replay %s: %w", rq.target, err)
				break
			}
			if rq.want.checkCount && rp.answer != rq.want.count {
				wrong = append(wrong, fmt.Sprintf("replay %s: count %d, want %d", rq.target, rp.answer, rq.want.count))
			}
			for name, ns := range rp.layers {
				layers[name] += ns
				layerNS += ns
			}
			kernel += rp.kernel
			layerNS += rp.kernel
			stages.PruneNS += rp.stages.PruneNS
			stages.FilterNS += rp.stages.FilterNS
			stages.MaterializeNS += rp.stages.MaterializeNS
			if j < len(t.opHandlers) {
				handlerNS += t.opHandlers[j].dur()
			}
			nReplayed++
		}
		if inst.in == nil {
			return
		}
		if v := registrySnapshot(inst.reg)["thicket_ingest_l0_segments"].Value; v > peakL0 {
			peakL0 = v
		}
	}
	segs := newSegmentLog(inst.st.Segments())
	store.SetLogger(slog.New(segs))
	t.start()
	o := r.measurePhase(inst, t.hooks(afterOp))
	afterOp(len(r.ops))
	t.stop()
	store.SetLogger(nil)
	if replayErr != nil {
		return nil, replayErr
	}
	createdBytes, err := segs.total()
	if err != nil {
		return nil, fmt.Errorf("segments written: %w", err)
	}

	rep := &report{Notes: map[string]float64{}}
	ref.fill(rep)
	o.fill(rep)
	rep.Failed += len(wrong)
	rep.Errors = append(rep.Errors, wrong...)
	rep.Correct = rep.Failed == 0
	snap := registrySnapshot(inst.reg)
	if err := r.discard(inst); err != nil {
		return nil, err
	}

	m := map[string]metricValue{}
	set := func(name string, v float64, unit string) { m[name] = metricValue{v, unit} }
	perReplay := func(ns int64) float64 {
		if nReplayed == 0 {
			return 0
		}
		return float64(ns) / float64(nReplayed) / 1e6
	}
	self := selfTimes(t.spans)
	var reqs int
	var handled int64
	for _, s := range t.spans {
		if s.Name == "http.request" {
			reqs++
		}
		if s.Name == "server.handler" {
			handled += s.dur()
		}
	}
	perReq := func(ns int64) float64 { return float64(ns) / float64(reqs) / 1e6 }
	set("server.handler_ms", perReq(handled), "ms")
	set("server.transport_ms", perReq(self["http.request"]), "ms")
	set("server.cache_hit_ratio", ratio(snap["thicket_response_cache_hits_total"].Value,
		snap["thicket_response_cache_misses_total"].Value), "fraction")
	set("server.reloads", snap["thicket_reloads_total"].Value, "count")
	set("server.reload_ms", t.meanMS("store.Load"), "ms")
	set("server.render_ms", perReplay(layers["server.render"]), "ms")
	set("plan.compile_us", perReplay(layers["plan.compile"])*1e3, "us")
	set("plan.prune_ms", perReplay(stages.PruneNS), "ms")
	set("plan.filter_ms", perReplay(stages.FilterNS), "ms")
	set("plan.materialize_ms", perReplay(stages.MaterializeNS), "ms")
	set("plan.block_skip_ratio", ratio(snap["thicket_plan_blocks_skipped_total"].Value,
		snap["thicket_plan_blocks_scanned_total"].Value), "fraction")
	set("plan.rows_materialized", snap["thicket_plan_rows_materialized_total"].Value/float64(len(r.ops)), "rows/op")
	setupMedian := func(f func(setupTimes) time.Duration) float64 {
		var xs []float64
		for _, st := range times {
			xs = append(xs, float64(f(st))/1e6)
		}
		return median(xs)
	}
	set("profile.decode_ms", setupMedian(func(s setupTimes) time.Duration { return s.Decode }), "ms")
	set("core.compose_ms", setupMedian(func(s setupTimes) time.Duration { return s.Compose }), "ms")
	set("store.append_ms", setupMedian(func(s setupTimes) time.Duration { return s.Append }), "ms")
	set("store.open_ms", setupMedian(func(s setupTimes) time.Duration { return s.Open }), "ms")
	set("store.load_ms", setupMedian(func(s setupTimes) time.Duration { return s.Load }), "ms")
	// From the untraced phase, whose column-cache traffic is the
	// program's alone: the traced phase's replays hit the cache too.
	set("store.column_cache_hit_ratio", ratio(float64(ref.colHits), float64(ref.colMisses)), "fraction")
	coreLayers := map[string]string{
		"core.copy_ms": "core.copy", "core.aggregate_ms": "core.aggregate", "core.grouped_ms": "core.grouped",
		"core.summary_ms": "core.summary", "core.query_ms": "core.query",
	}
	for metric, name := range coreLayers {
		set(metric, perReplay(layers[name]), "ms")
	}
	set("dataframe.kernel_ms", perReplay(kernel), "ms")
	if nReplayed == 0 {
		// Nothing replays in ingest: its reads after each invalidation
		// are charged from the program's own spans, per request.
		set("core.aggregate_ms", perReq(t.totalNS("core.AggregateStats")), "ms")
		set("core.grouped_ms", perReq(t.totalNS("core.GroupedStats")), "ms")
		set("dataframe.kernel_ms", perReq(t.totalNS("dataframe.")), "ms")
	}
	var submits int64
	var nSubmits int
	for _, s := range t.spans {
		if s.Name == "ingest.submit" {
			submits += s.dur()
			nSubmits++
		}
	}
	set("ingest.submit_ms", ratioOrZero(float64(submits)/1e6, float64(nSubmits)), "ms")
	set("ingest.wal_fsync_ms", 1e3*ratioOrZero(snap["thicket_wal_fsync_seconds"].Sum, float64(snap["thicket_wal_fsync_seconds"].Count)), "ms")
	set("ingest.flushes", snap["thicket_ingest_l0_flushes_total"].Value, "count")
	set("ingest.compactions", snap["thicket_compactions_total"].Value, "count")
	set("ingest.compact_ms", 1e3*ratioOrZero(snap["thicket_compaction_seconds"].Sum, float64(snap["thicket_compaction_seconds"].Count)), "ms")
	set("ingest.peak_l0_segments", peakL0, "count")
	set("ingest.write_amp", ratioOrZero(float64(createdBytes), snap["thicket_wal_bytes_total"].Value), "ratio")
	set("ingest.shed", snap["thicket_ingest_rejected_total"].Value, "count")
	set("runtime.alloc_mb_per_op", (ref.rt1.allocBytes-ref.rt0.allocBytes)/float64(len(r.ops))/(1<<20), "MB/op")
	set("runtime.gc_cpu_fraction", ratioOrZero(ref.rt1.gcCPU-ref.rt0.gcCPU, ref.rt1.totalCPU-ref.rt0.totalCPU), "fraction")
	untracedP50, err := percentile(millis(ref.ph.lat), 0.5)
	if err != nil {
		return nil, err
	}
	tracedP50, err := percentile(millis(o.ph.lat), 0.5)
	if err != nil {
		return nil, err
	}
	set("trace.op_p50_untraced_ms", untracedP50, "ms")
	set("trace.op_p50_traced_ms", tracedP50, "ms")
	set("trace.overhead_ms", tracedP50-untracedP50, "ms")
	set("trace.reconcile_gap", checkReconcile(rep, r.cfg.workload, handlerNS, layerNS), "fraction")
	rep.Metrics = m
	rep.Notes["replayed_requests"] = float64(nReplayed)
	rep.Notes["reconcile_tolerance"] = reconcileTolerance
	rep.Notes["segments_written"] = float64(len(segs.bytes))
	rep.Notes["collector_dropped"] = float64(t.col.Dropped())
	rep.Spans = t.spans
	return rep, nil
}

// reconcile is the signed gap between the handler time of the replayed
// requests and the sum of their replayed layer self times, as a share
// of the handler time, and an error when it lies beyond
// reconcileTolerance.
func reconcile(handlerNS, layerNS int64) (float64, error) {
	if handlerNS <= 0 {
		return 0, fmt.Errorf("no handler time to reconcile layer times with")
	}
	gap := float64(handlerNS-layerNS) / float64(handlerNS)
	if math.Abs(gap) > reconcileTolerance {
		return gap, fmt.Errorf("replayed layer self times (%.1f ms) differ from handler time (%.1f ms) by %+.1f%%, beyond the ±%.0f%% tolerance",
			float64(layerNS)/1e6, float64(handlerNS)/1e6, -100*gap, 100*reconcileTolerance)
	}
	return gap, nil
}

// checkReconcile returns the reconcile gap. On adhoc, whose replays
// cover the whole handler, a gap beyond the tolerance fails the run.
func checkReconcile(rep *report, workload string, handlerNS, layerNS int64) float64 {
	gap, err := reconcile(handlerNS, layerNS)
	if err != nil && workload == "adhoc" {
		rep.Failed++
		rep.Errors = append(rep.Errors, "reconcile: "+err.Error())
		rep.Correct = false
	}
	return gap
}

// segmentLog is a slog handler for the store package's events. It
// records the file size of every segment the store writes, by segment
// generation, when the store logs the append or the compaction that
// wrote it. The store logs while it holds its lock, so no later
// compaction can have retired the file yet: unlike sampling the
// segment list between ops, this sees every segment, including those a
// cascading compaction merges again at once.
type segmentLog struct {
	mu    sync.Mutex
	next  int64           // first generation the run writes
	bytes map[int64]int64 // file bytes by generation
	err   error
}

func newSegmentLog(base []store.SegmentInfo) *segmentLog {
	l := &segmentLog{bytes: map[int64]int64{}}
	for _, sg := range base {
		l.next = max(l.next, sg.Gen+1)
	}
	return l
}

func (l *segmentLog) Enabled(context.Context, slog.Level) bool { return true }
func (l *segmentLog) WithAttrs([]slog.Attr) slog.Handler       { return l }
func (l *segmentLog) WithGroup(string) slog.Handler            { return l }

func (l *segmentLog) Handle(_ context.Context, rec slog.Record) error {
	if rec.Message != "store append" && rec.Message != "store compact" {
		return nil
	}
	var dir string
	gen := int64(-1)
	rec.Attrs(func(a slog.Attr) bool {
		switch {
		case a.Key == "path":
			dir = a.Value.String()
		case a.Key == "segment_gen" && a.Value.Kind() == slog.KindInt64:
			gen = a.Value.Int64()
		}
		return true
	})
	l.mu.Lock()
	defer l.mu.Unlock()
	if gen < 0 {
		l.err = fmt.Errorf("%q event without a segment generation", rec.Message)
		return nil
	}
	// The directory store's file name for a generation, as
	// Store.Segments reports it in SegmentInfo.File.
	fi, err := os.Stat(filepath.Join(dir, fmt.Sprintf("seg-%06d.tks", gen)))
	if err != nil {
		l.err = err
		return nil
	}
	l.bytes[gen] = fi.Size()
	return nil
}

// total is the bytes of every segment written, or an error if the
// written generations are not the contiguous run that follows the
// base: a gap would be a segment whose size was never seen.
func (l *segmentLog) total() (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	var sum int64
	for g := l.next; g < l.next+int64(len(l.bytes)); g++ {
		b, ok := l.bytes[g]
		if !ok {
			return 0, fmt.Errorf("segment generation %d written but never logged", g)
		}
		sum += b
	}
	return sum, nil
}

// meanMS is the mean duration of the program's spans of one name.
func (t *tracer) meanMS(name string) float64 {
	a := t.byName[name]
	if a == nil || a.count == 0 {
		return 0
	}
	return float64(a.ns) / float64(a.count) / 1e6
}

// totalNS sums the program's spans whose name starts with prefix.
func (t *tracer) totalNS(prefix string) int64 {
	var ns int64
	for name, a := range t.byName {
		if strings.HasPrefix(name, prefix) {
			ns += a.ns
		}
	}
	return ns
}

// ratio is a/(a+b): the share of useful outcomes among attempts.
func ratio(a, b float64) float64 { return ratioOrZero(a, a+b) }

func ratioOrZero(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// registrySnapshot indexes a registry's families, summed over labels.
func registrySnapshot(reg *telemetry.Registry) map[string]telemetry.MetricSnapshot {
	out := map[string]telemetry.MetricSnapshot{}
	for _, s := range reg.Snapshot() {
		out[s.Name] = s
	}
	return out
}

// stop turns the program's spans off and drains the last of them.
func (t *tracer) stop() {
	t.active.Store(false)
	telemetry.SetEnabled(false)
	t.drain()
	telemetry.SetCollector(nil)
}

// drain aggregates the collector's finished span trees by name and
// keeps the dataframe kernel roots for placement inside replay spans.
func (t *tracer) drain() {
	roots := t.col.Roots()
	t.col.Reset()
	var walk func(n *telemetry.TraceNode)
	walk = func(n *telemetry.TraceNode) {
		a := t.byName[n.Name]
		if a == nil {
			a = &nameAgg{}
			t.byName[n.Name] = a
		}
		a.count++
		a.ns += n.DurNS()
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, r := range roots {
		walk(r)
		if strings.HasPrefix(r.Name, "dataframe.") {
			t.kernels = append(t.kernels, interval{r.StartNS, r.EndNS})
		}
	}
}

// hooks records op, request, handler and submit spans as the phase
// runs, and calls afterOp after every op.
func (t *tracer) hooks(afterOp func(op int)) *hooks {
	return &hooks{
		afterRequest: func(op, req int, start time.Time, d time.Duration) {
			s := spanClock(start)
			if req == 0 {
				t.opStart = s
				t.reqSpans = t.reqSpans[:0]
				t.opHandlers = t.opHandlers[:0]
			}
			t.opEnd = s + int64(d)
			rid := t.add(span{Op: op, Name: "http.request", Start: s, End: t.opEnd})
			t.reqSpans = append(t.reqSpans, rid)
			hid := rid
			select {
			case h := <-t.handled:
				hs := span{Op: op, Parent: rid, Name: "server.handler", Start: h.start, End: h.end}
				hid = t.add(hs)
				t.opHandlers = append(t.opHandlers, hs)
			case <-time.After(10 * time.Second):
				// The request never reached the handler; its op has
				// already failed its answer check.
			}
			t.mu.Lock()
			subs := t.submits
			t.submits = nil
			t.mu.Unlock()
			for _, sb := range subs {
				t.add(span{Op: op, Parent: hid, Name: "ingest.submit", Start: sb.start, End: sb.end})
			}
		},
		afterOp: func(op int) {
			id := t.add(span{Op: op, Name: "op", Start: t.opStart, End: t.opEnd})
			for _, rid := range t.reqSpans {
				t.spans[rid-1].Parent = id
			}
			t.drain()
			t.kernels = t.kernels[:0]
			afterOp(op)
		},
	}
}

// selfTimes sums each span name's self time: its duration less the
// part of it its child spans cover.
func selfTimes(spans []span) map[string]int64 {
	children := map[int][]interval{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Name] += s.dur() - cover(interval{s.Start, s.End}, children[s.ID])
	}
	return out
}

// cover is the length of the union of ivs clipped to within.
func cover(within interval, ivs []interval) int64 {
	var clipped []interval
	for _, iv := range ivs {
		if iv.start < within.start {
			iv.start = within.start
		}
		if iv.end > within.end {
			iv.end = within.end
		}
		if iv.end > iv.start {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total, end int64
	end = within.start
	for _, iv := range clipped {
		if iv.start > end {
			end = iv.start
		}
		if iv.end > end {
			total += iv.end - end
			end = iv.end
		}
	}
	return total
}

// replayed is what replaying one request through the layer calls the
// handler makes produced.
type replayed struct {
	layers map[string]int64 // self ns by layer
	kernel int64            // dataframe kernel time inside the layers
	stages plan.StageTimes
	answer int // the count the handler would have answered
}

// replay re-executes one served request through the public layer calls
// its handler makes, in the handler's order, timing each as a span of
// op. Dataframe kernel spans the program records during a layer call
// are charged to the kernel layer, not to the caller.
func (t *tracer) replay(op int, inst *instance, rq request) (replayed, error) {
	rp := replayed{layers: map[string]int64{}}
	u, err := url.Parse(rq.target)
	if err != nil {
		return rp, err
	}
	q := u.Query()
	root := t.add(span{Op: op, Name: "replay " + u.Path, Start: spanClock(time.Now())})
	var layerIDs []int
	layer := func(name string, f func() error) error {
		s := spanClock(time.Now())
		err := f()
		layerIDs = append(layerIDs, t.add(span{Op: op, Parent: root, Name: name, Start: s, End: spanClock(time.Now())}))
		return err
	}
	var preds []plan.Predicate
	if err := layer("plan.compile", func() (err error) { preds, err = plan.Compile(q["where"]); return }); err != nil {
		return rp, err
	}
	th, rows := inst.th, inst.th.Metadata.NRows()
	if len(preds) > 0 {
		err := layer("plan.analyze", func() error {
			out, ex, err := plan.AnalyzeStore(context.Background(), inst.st, preds)
			if err == nil {
				th, rows, rp.stages = out, ex.Stats.Rows, ex.Stages
			}
			return err
		})
		if err != nil {
			return rp, err
		}
	}
	metrics := colKeys(q.Get("metrics"))
	aggs := split(q.Get("aggs"))
	var payload map[string]any
	switch u.Path {
	case "/api/profiles":
		payload = map[string]any{"count": th.NumProfiles(), "total": rows}
		err = layer("server.render", func() error { return render(payload, th.Metadata) })
	case "/api/stats":
		var c *core.Thicket
		layer("core.copy", func() error { c = th.Copy(); return nil })
		if err = layer("core.aggregate", func() error { return c.AggregateStats(metrics, aggs) }); err == nil {
			payload = map[string]any{"count": c.Stats.NRows()}
			err = layer("server.render", func() error { return render(payload, c.Stats) })
		}
	case "/api/groupby":
		var f *dataframe.Frame
		if err = layer("core.grouped", func() (err error) { f, err = th.GroupedStats(split(q.Get("by")), metrics, aggs); return }); err == nil {
			payload = map[string]any{"count": f.NRows()}
			err = layer("server.render", func() error { return render(payload, f) })
		}
	case "/api/summary":
		var f *dataframe.Frame
		if err = layer("core.summary", func() (err error) { f, err = th.MetadataSummary(split(q.Get("by"))...); return }); err == nil {
			payload = map[string]any{"count": f.NRows()}
			err = layer("server.render", func() error { return render(payload, f) })
		}
	case "/api/query":
		var out *core.Thicket
		if err = layer("core.query", func() (err error) { out, err = th.QueryString(q.Get("q")); return }); err == nil {
			payload = map[string]any{"count": out.Tree.Len()}
			err = layer("server.render", func() error {
				_, err := json.MarshalIndent(map[string]any{"kept": out.Tree.Len(), "total": th.Tree.Len(), "nodes": out.NodePaths()}, "", "  ")
				return err
			})
		}
	default:
		return rp, fmt.Errorf("no replay for %s", u.Path)
	}
	if err != nil {
		return rp, err
	}
	t.spans[root-1].End = spanClock(time.Now())
	t.drain()
	for _, id := range layerIDs {
		s := t.spans[id-1]
		k := cover(interval{s.Start, s.End}, t.kernels)
		rp.layers[s.Name] += s.dur() - k
		rp.kernel += k
	}
	t.kernels = t.kernels[:0]
	rp.answer = payload["count"].(int)
	return rp, nil
}

// render is the handler's response rendering: frame rows as JSON
// records, marshalled with two-space indent.
func render(payload map[string]any, f *dataframe.Frame) error {
	payload["rows"] = frameRows(f)
	_, err := json.MarshalIndent(payload, "", "  ")
	return err
}

// frameRows renders a frame as JSON records the way the server does:
// index levels under their names, columns under their joined keys.
func frameRows(f *dataframe.Frame) []map[string]any {
	rows := make([]map[string]any, f.NRows())
	names := f.Index().Names()
	for r := range rows {
		rec := make(map[string]any, len(names)+f.NCols())
		for l, v := range f.Index().KeyAt(r) {
			rec[names[l]] = valueJSON(v)
		}
		for c := 0; c < f.NCols(); c++ {
			rec[f.ColIndex().Key(c).String()] = valueJSON(f.ColumnAt(c).At(r))
		}
		rows[r] = rec
	}
	return rows
}

func valueJSON(v dataframe.Value) any {
	if v.IsNull() {
		return nil
	}
	switch v.Kind() {
	case dataframe.Float:
		return v.Float()
	case dataframe.Int:
		return v.Int()
	case dataframe.String:
		return v.Str()
	case dataframe.Bool:
		return v.Bool()
	}
	return nil
}

func split(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func colKeys(s string) []dataframe.ColKey {
	var out []dataframe.ColKey
	for _, n := range split(s) {
		out = append(out, dataframe.ColKey{n})
	}
	return out
}
