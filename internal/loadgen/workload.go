package loadgen

import (
	"fmt"
	"math/rand"
	"net/url"
	"strconv"
)

// Named workload mixes. Each mix is a deterministic request generator:
// given a client's seeded PRNG stream and a request sequence number it
// produces the exact endpoint + query string, so the full request
// stream is part of the reproducible schedule.
const (
	// WorkloadCacheFriendly rotates through a small fixed set of
	// cacheable queries — after the first round every request is a
	// response-cache hit, exercising the hit/wait fast path.
	WorkloadCacheFriendly = "cache-friendly"
	// WorkloadCacheHostile makes every request's canonical cache key
	// unique (fresh predicate values plus a nonce parameter), so every
	// request is a miss that runs the full query kernel.
	WorkloadCacheHostile = "cache-hostile"
	// WorkloadHotSkew draws endpoints from a Zipf distribution — a few
	// hot endpoints absorb most of the traffic while the tail keeps
	// every handler warm, the skew production query mixes show.
	WorkloadHotSkew = "hot-skew"
	// WorkloadIngestQuery interleaves store appends (one profile per
	// ingest event) with cacheable queries — the write path invalidates
	// the response cache and forces thicket refreshes mid-traffic.
	WorkloadIngestQuery = "ingest-query"
)

// workloadNames lists the valid Workload values of a ClientSpec.
var workloadNames = []string{
	WorkloadCacheFriendly, WorkloadCacheHostile, WorkloadHotSkew, WorkloadIngestQuery,
}

// cacheableQueries is the fixed rotation of the cache-friendly mix,
// phrased against the synthetic MARBL ensemble schema the self-hosted
// harness serves (and any store with cluster/numhosts metadata and an
// "Avg time/rank" metric — thicketd answers 400s for the rest, which
// the report surfaces as errors).
var cacheableQueries = []struct{ path, query string }{
	{"/api/stats", "aggs=mean,std&metrics=" + url.QueryEscape("Avg time/rank")},
	{"/api/groupby", "by=cluster&aggs=mean&metrics=" + url.QueryEscape("Avg time/rank")},
	{"/api/summary", "by=cluster,numhosts"},
	{"/api/query", "q=" + url.QueryEscape(". name == main / . name == timeStepLoop / *")},
	{"/api/stats", "aggs=mean&metrics=" + url.QueryEscape("Avg time/rank")},
	{"/api/groupby", "by=numhosts&aggs=mean,std&metrics=" + url.QueryEscape("Avg time/rank")},
}

// hotEndpoints is the catalog the hot-skew mix draws from, hottest
// first (the Zipf rank order).
var hotEndpoints = []struct{ path, query string }{
	{"/api/stats", "aggs=mean&metrics=" + url.QueryEscape("Avg time/rank")},
	{"/api/profiles", ""},
	{"/api/groupby", "by=cluster&aggs=mean"},
	{"/api/info", ""},
	{"/api/summary", "by=cluster"},
	{"/api/tree", "metric=" + url.QueryEscape("Avg time/rank")},
	{"/api/query", "q=" + url.QueryEscape(". name == main / *")},
	{"/healthz", ""},
}

// requestGen emits the seq-th request of one client. Implementations
// may consume r; they must consume the same number of draws for the
// same (seq) on every run, which all of them do trivially by being
// pure functions of (r, seq).
type requestGen func(r *rand.Rand, seq int) (path, query string, ingest bool)

// newRequestGen compiles a workload-mix name into its generator.
func newRequestGen(workload string, r *rand.Rand) (requestGen, error) {
	switch workload {
	case WorkloadCacheFriendly, "":
		return func(_ *rand.Rand, seq int) (string, string, bool) {
			q := cacheableQueries[seq%len(cacheableQueries)]
			return q.path, q.query, false
		}, nil
	case WorkloadCacheHostile:
		return func(r *rand.Rand, seq int) (string, string, bool) {
			// Rotate endpoints but salt every query with a fresh
			// predicate value and a nonce, so no two canonical cache keys
			// collide: every request is a full-kernel miss. The where=
			// clauses run the compiled predicate-pushdown plan against
			// the self-host schema's real columns (cluster, numhosts),
			// so misses exercise the vectorized filter path, not just
			// the aggregation kernels.
			hosts := 1 + r.Intn(64)
			nonce := strconv.Itoa(seq) + "-" + strconv.FormatUint(uint64(r.Uint32()), 16)
			switch seq % 4 {
			case 0:
				return "/api/profiles", "where=" + url.QueryEscape(fmt.Sprintf("numhosts<=%d", hosts)) + "&u=" + nonce, false
			case 1:
				return "/api/groupby", "by=cluster&aggs=mean,std&where=" + url.QueryEscape(fmt.Sprintf("numhosts>%d", r.Intn(4))) + "&u=" + nonce, false
			case 2:
				return "/api/stats", "aggs=mean&where=" + url.QueryEscape("cluster!=nosuchcluster") + "&u=" + nonce, false
			default:
				return "/api/query", "q=" + url.QueryEscape(". name == main / *") + "&u=" + nonce, false
			}
		}, nil
	case WorkloadHotSkew:
		// Zipf s=1.2 over the catalog: rank 0 takes roughly half the
		// stream. rand.Zipf is deterministic for a seeded source.
		z := rand.NewZipf(r, 1.2, 1, uint64(len(hotEndpoints)-1))
		return func(_ *rand.Rand, _ int) (string, string, bool) {
			e := hotEndpoints[z.Uint64()]
			return e.path, e.query, false
		}, nil
	case WorkloadIngestQuery:
		return func(_ *rand.Rand, seq int) (string, string, bool) {
			if seq%4 == 3 { // every 4th event appends a profile
				return "", "", true
			}
			q := cacheableQueries[seq%len(cacheableQueries)]
			return q.path, q.query, false
		}, nil
	}
	return nil, fmt.Errorf("loadgen: unknown workload %q (want one of %v)", workload, workloadNames)
}
