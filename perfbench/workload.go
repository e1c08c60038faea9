package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/store"
)

// Workloads and the op rate each is sized by. A run does a fixed
// amount of work, seconds × rate ops, never a fixed duration: in
// ingest every read costs more as the store grows, so a fast phase of
// the host must not buy itself a bigger store. The rates are what one
// closed-loop client sustains on a 2-vCPU x86-64 host (for ingest, per
// round), so a run measures for about --seconds there.
var workloads = map[string]float64{
	"dashboard": 600,
	"adhoc":     60,
	"ingest":    75,
}

// postsPerOp is how many profiles one ingest op posts before its read.
// Every flush (one per 16 profiles) and every compaction makes the next
// read reload the whole store. With one post per op those reads are 8%
// of ops, and the 90th percentile would sit between the two modes and
// jump from run to run; with two they are 17%, and op_p90_ms measures
// the reloads.
const postsPerOp = 2

// opsFor is the op count of one measured phase. Adhoc asks whole
// rounds of its question shapes.
func opsFor(workload string, seconds int) int {
	n := int(float64(seconds) * workloads[workload])
	switch workload {
	case "ingest":
		n = min(n, maxIngest/postsPerOp)
	case "adhoc":
		k := len(conjunctions())
		n = max(1, (n+k/2)/k) * k
	}
	return n
}

const metric = "time (exc)"

// panel is one cacheable read: an endpoint and its query parameters.
type panel struct {
	path string
	q    url.Values
}

func (p panel) target() string { return p.path + "?" + p.q.Encode() }

// dashboardPanels are six cacheable reads over the five-segment store.
// /api/profiles, /api/tree and /api/info are never cached, so they are
// not panels.
func dashboardPanels() []panel {
	return []panel{
		{"/api/stats", url.Values{"metrics": {metric}, "aggs": {"mean,std"}}},
		{"/api/stats", url.Values{"metrics": {metric}, "aggs": {"min,max"}, "where": {"variant=CUDA"}}},
		{"/api/groupby", url.Values{"by": {"variant"}, "metrics": {metric}, "aggs": {"mean"}}},
		{"/api/groupby", url.Values{"by": {"compiler optimizations"}, "metrics": {metric}, "aggs": {"mean"}, "where": {"variant=Sequential"}}},
		{"/api/summary", url.Values{"by": {"variant,compiler"}}},
		{"/api/query", url.Values{"q": {". name == Base_Seq / *"}}},
	}
}

// answers derives expected answers from the generation table: the
// profiles a conjunction matches, and the call-tree paths of the
// variants generated.
type answers struct {
	table []entry
	paths []string // union call tree, all variants
}

func newAnswers(table []entry, m *manifest) *answers {
	seen := map[string]bool{}
	a := &answers{table: table}
	for _, ps := range m.VariantPaths {
		for _, p := range ps {
			if !seen[p] {
				seen[p] = true
				a.paths = append(a.paths, p)
			}
		}
	}
	sort.Strings(a.paths)
	return a
}

// distinct counts the distinct values of cols among entries.
func distinct(es []entry, cols ...string) int {
	seen := map[string]bool{}
	for _, e := range es {
		var key []string
		for _, c := range cols {
			s, num, isNum := e.value(c)
			if isNum {
				s = strconv.FormatFloat(num, 'g', -1, 64)
			}
			key = append(key, s)
		}
		seen[strings.Join(key, "\x00")] = true
	}
	return len(seen)
}

// expectPanel computes a panel's answer. Filtered stats keep the union
// call tree, so stats count one row per union node and group-bys one
// per node and group.
func (a *answers) expectPanel(p panel) expect {
	var preds []pred
	for _, w := range p.q["where"] {
		preds = append(preds, parsePred(w))
	}
	rows := matching(a.table, preds)
	nodes := len(a.paths)
	switch p.path {
	case "/api/stats":
		return expect{checkCount: true, count: nodes}
	case "/api/groupby":
		return expect{checkCount: true, count: nodes * distinct(rows, strings.Split(p.q.Get("by"), ",")...)}
	case "/api/summary":
		return expect{checkCount: true, count: distinct(rows, strings.Split(p.q.Get("by"), ",")...)}
	case "/api/query":
		kept := 0
		for _, p := range a.paths {
			if p == "Base_Seq" || strings.HasPrefix(p, "Base_Seq/") {
				kept++
			}
		}
		return expect{checkCount: true, count: kept, total: nodes}
	case "/api/profiles":
		return expect{checkCount: true, count: len(rows), total: len(a.table)}
	}
	panic("perfbench: no expectation for " + p.path)
}

// parsePred splits "col<op>value" the way the generator wrote it.
func parsePred(s string) pred {
	for _, op := range []string{"<=", ">=", "!=", "=", "<", ">"} {
		if i := strings.Index(s, op); i > 0 {
			return pred{s[:i], op, s[i+len(op):]}
		}
	}
	panic("perfbench: bad predicate " + s)
}

// adhocPanels are the three requests of one analyst question.
func adhocPanels(q question) []panel {
	nonce := strconv.FormatInt(q.Nonce, 10)
	var where []string
	for _, p := range q.Preds {
		where = append(where, p.String())
	}
	return []panel{
		{"/api/profiles", url.Values{"where": where, "nonce": {nonce}}},
		{"/api/stats", url.Values{"where": where, "metrics": {metric}, "aggs": {"mean,max"}, "nonce": {nonce}}},
		{"/api/groupby", url.Values{"where": where, "by": {"compiler optimizations"}, "metrics": {metric}, "aggs": {"mean"}, "nonce": {nonce}}},
	}
}

// buildOps lays out n ops of a workload. a may be nil when only the
// schedule is wanted (expectations are then zero); bodies are the
// ingest payloads, postsPerOp per ingest op.
func buildOps(workload string, seed int64, n int, a *answers, bodies [][]byte) [][]request {
	get := func(p panel) request {
		rq := request{method: http.MethodGet, target: p.target()}
		if a != nil {
			rq.want = a.expectPanel(p)
		}
		return rq
	}
	ops := make([][]request, n)
	switch workload {
	case "dashboard":
		// Each refresh loads the six panels in its own seeded order.
		rng := rand.New(rand.NewSource(seed))
		panels := dashboardPanels()
		for i := range ops {
			for _, k := range rng.Perm(len(panels)) {
				ops[i] = append(ops[i], get(panels[k]))
			}
		}
	case "adhoc":
		for i, q := range adhocSchedule(seed, n) {
			for _, p := range adhocPanels(q) {
				ops[i] = append(ops[i], get(p))
			}
		}
	case "ingest":
		panel := dashboardPanels()[0]
		for i := range ops {
			for _, b := range bodies[i*postsPerOp : (i+1)*postsPerOp] {
				ops[i] = append(ops[i], request{method: http.MethodPost, target: "/ingest", body: b, want: expect{acked: true}})
			}
			ops[i] = append(ops[i], get(panel))
		}
	default:
		panic("perfbench: unknown workload " + workload)
	}
	return ops
}

// schedule flattens a workload's ops, with ingest payloads generated
// in memory, for hashing.
func schedule(workload string, seed int64, n int) []request {
	var bodies [][]byte
	if workload == "ingest" {
		var err error
		if bodies, err = ingestPayloads(seed, n*postsPerOp); err != nil {
			panic(err)
		}
	}
	var out []request
	for _, op := range buildOps(workload, seed, n, nil, bodies) {
		out = append(out, op...)
	}
	return out
}

// ingestPayloads generates the profile JSON of the n profiles an ingest
// run posts.
func ingestPayloads(seed int64, n int) ([][]byte, error) {
	out := make([][]byte, n)
	for i, e := range ingestTable(n) {
		cfg := e.Cfg
		cfg.Seed = seed
		p, err := sim.GenerateRaja(cfg)
		if err != nil {
			return nil, err
		}
		if out[i], err = p.MarshalBytes(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// readPayloads loads the ingest payloads written by writeInputs.
func readPayloads(dir string, n int) ([][]byte, error) {
	out := make([][]byte, n)
	for i := range out {
		b, err := os.ReadFile(filepath.Join(dir, ingestDir, fmt.Sprintf("%05d.json", i)))
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// phase is the outcome of one measured phase.
type phase struct {
	lat       []time.Duration // per op, client side
	wall      time.Duration
	attempted int
	failed    int
	errs      []string
}

// hooks let the traced run observe each op; nil in untraced runs.
type hooks struct {
	afterRequest func(op, req int, start time.Time, d time.Duration)
	afterOp      func(op int)
}

// runPhase drives ops through the instance with one closed-loop client
// and checks every answer; with stable set, a repeated read must also
// return the bytes it returned the first time. Only the HTTP exchanges
// are timed as op latency; checking happens between ops.
func runPhase(inst *instance, ops [][]request, stable bool, h *hooks) phase {
	ph := phase{lat: make([]time.Duration, len(ops))}
	first := map[string][]byte{}
	type answer struct {
		status int
		body   []byte
		err    error
	}
	begin := time.Now()
	for i, op := range ops {
		got := make([]answer, len(op))
		for j, rq := range op {
			t0 := time.Now()
			got[j].status, got[j].body, got[j].err = inst.do(rq)
			d := time.Since(t0)
			// An op's requests run back to back, so its latency is
			// their sum; a traced run's hooks run between them.
			ph.lat[i] += d
			if h != nil && h.afterRequest != nil {
				h.afterRequest(i, j, t0, d)
			}
		}
		ph.attempted++
		var opErr error
		for j, rq := range op {
			err := got[j].err
			if err == nil {
				err = check(rq, got[j].status, got[j].body)
			}
			if err == nil && stable {
				if prev, ok := first[rq.target]; !ok {
					first[rq.target] = got[j].body
				} else if !bytes.Equal(prev, got[j].body) {
					err = fmt.Errorf("GET %s: answer changed between refreshes", rq.target)
				}
			}
			if err != nil && opErr == nil {
				opErr = err
			}
		}
		if opErr != nil {
			ph.failed++
			if len(ph.errs) < 5 {
				ph.errs = append(ph.errs, opErr.Error())
			}
		}
		if h != nil && h.afterOp != nil {
			h.afterOp(i)
		}
	}
	ph.wall = time.Since(begin)
	return ph
}

// verifyIngest closes the ingester, reopens the store from disk and
// checks that every acked profile is present exactly once.
func verifyIngest(inst *instance, payloads [][]byte) error {
	if err := inst.in.Close(); err != nil {
		return err
	}
	if n := inst.reg.SumCounter("thicket_ingest_dropped_total"); n != 0 {
		return fmt.Errorf("ingest dropped %d acked profiles", n)
	}
	st, err := store.Open(inst.dir)
	if err != nil {
		return err
	}
	defer st.Close()
	meta, err := st.Metadata()
	if err != nil {
		return err
	}
	seen := map[int64]int{}
	for r := 0; r < meta.NRows(); r++ {
		seen[meta.Index().KeyAt(r)[0].Int()]++
	}
	if want := len(baseTable()) + len(payloads); meta.NRows() != want {
		return fmt.Errorf("reopened store holds %d profiles, want %d", meta.NRows(), want)
	}
	for i, b := range payloads {
		p, err := profile.FromBytes(b)
		if err != nil {
			return err
		}
		if c := seen[p.Hash()]; c != 1 {
			return fmt.Errorf("ingested profile %d present %d times", i, c)
		}
	}
	return nil
}
