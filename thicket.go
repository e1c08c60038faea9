// Package thicket is the public API of this repository: a Go
// implementation of Thicket (Brink et al., HPDC '23), a toolkit for
// Exploratory Data Analysis of multi-run performance experiments.
//
// A Thicket unifies an ensemble of performance profiles into three linked
// components — per-(node, profile) performance data, per-profile
// metadata, and per-node aggregated statistics — and exposes the paper's
// EDA verbs: metadata filtering, group-by, call-path querying, order
// reduction, hierarchical (multi-tool / multi-architecture) composition,
// K-means clustering with silhouette selection, and Extra-P style
// performance modeling.
//
// Quick start:
//
//	profiles, _ := profile.LoadDir("runs/")
//	th, _ := thicket.FromProfiles(profiles, thicket.Options{})
//	fmt.Println(th.Metadata)
//	clang := th.FilterMetadata(func(m thicket.MetaRow) bool {
//	    return m.Str("compiler") == "clang-9.0.0"
//	})
//	_ = clang.AggregateStats(nil, []string{"mean", "std"})
//	fmt.Println(clang.Stats)
//
// The facade re-exports the stable subset of the internal packages;
// power users can reach the substrates directly (repro/internal/...),
// but everything demonstrated in the paper is available from here.
package thicket

import (
	"context"
	"io"
	"log/slog"
	"os"
	"strings"

	"repro/internal/calltree"
	"repro/internal/core"
	"repro/internal/dataframe"
	"repro/internal/extrap"
	"repro/internal/ingest"
	"repro/internal/mlkit"
	"repro/internal/monitor"
	"repro/internal/parallel"
	"repro/internal/plan"
	"repro/internal/profile"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// SetParallelism fixes the worker count used by the parallel aggregation
// engine (group-by, order reduction, pivoting, K-means assignment) and
// returns the previous setting. n == 1 forces the sequential reference
// path; n <= 0 restores the default (THICKET_PARALLELISM, else
// GOMAXPROCS). Results are bit-identical at any worker count: work is
// only split across independent units and partials merge in fixed chunk
// order (see repro/internal/parallel).
func SetParallelism(n int) int { return parallel.Set(n) }

// Parallelism reports the effective worker count of the parallel engine.
func Parallelism() int { return parallel.Workers() }

// Core ensemble types (paper §3).
type (
	// Thicket is the unified ensemble object.
	Thicket = core.Thicket
	// Options configures FromProfiles (e.g. IndexBy).
	Options = core.Options
	// MetaRow is the typed row view passed to FilterMetadata predicates.
	MetaRow = core.MetaRow
	// StatsRow is the typed row view passed to FilterStats predicates.
	StatsRow = core.StatsRow
	// GroupedThicket is one GroupBy partition.
	GroupedThicket = core.GroupedThicket
	// NodeModel pairs a call-tree node with its fitted model.
	NodeModel = core.NodeModel
)

// Data substrate types.
type (
	// Profile is one run's call tree + metrics + metadata.
	Profile = profile.Profile
	// Frame is the multi-indexed table type backing all components.
	Frame = dataframe.Frame
	// Value is a typed scalar cell.
	Value = dataframe.Value
	// ColKey addresses a (possibly hierarchical) column.
	ColKey = dataframe.ColKey
	// Row is a cursor over one frame row.
	Row = dataframe.Row
	// Tree is a call tree / forest.
	Tree = calltree.Tree
	// Node is one call-tree region.
	Node = calltree.Node
	// Matcher is a call-path query under construction.
	Matcher = query.Matcher
	// ExtrapModel is a fitted PMNF performance model.
	ExtrapModel = extrap.Model
	// ExtrapOptions tunes the model search.
	ExtrapOptions = extrap.Options
	// KMeansResult is a fitted clustering.
	KMeansResult = mlkit.KMeansResult
	// Matrix is a dense sample matrix for the ML helpers.
	Matrix = mlkit.Matrix
)

// Index level names of the thicket tables.
const (
	NodeLevel    = core.NodeLevel
	ProfileLevel = core.ProfileLevel
)

// FromProfiles composes profiles into a thicket (paper §3.2.1).
func FromProfiles(profiles []*Profile, opts Options) (*Thicket, error) {
	return core.FromProfiles(profiles, opts)
}

// Compose hierarchically composes thickets, adding a column-index level
// (paper §3.2.2).
func Compose(groups []string, thickets []*Thicket) (*Thicket, error) {
	return core.Compose(groups, thickets)
}

// ConcatProfiles vertically concatenates thickets over disjoint profiles.
func ConcatProfiles(thickets []*Thicket) (*Thicket, error) {
	return core.ConcatProfiles(thickets)
}

// LoadProfile reads one profile from disk.
func LoadProfile(path string) (*Profile, error) { return profile.Load(path) }

// LoadProfileDir reads every *.json profile under dir.
func LoadProfileDir(dir string) ([]*Profile, error) { return profile.LoadDir(dir) }

// NewProfile returns an empty profile for programmatic construction.
func NewProfile() *Profile { return profile.New() }

// NewQuery starts a call-path query in the Hatchet QueryMatcher style
// (paper §4.1.3).
func NewQuery() *Matcher { return query.NewMatcher() }

// ParseQuery compiles the textual query DSL (see internal/query.Parse).
func ParseQuery(text string) (*Matcher, error) { return query.Parse(text) }

// Query-node predicates, re-exported for matcher construction.
var (
	NameEquals     = query.NameEquals
	NameEndsWith   = query.NameEndsWith
	NameStartsWith = query.NameStartsWith
	NameContains   = query.NameContains
	NameMatches    = query.NameMatches
)

// Typed cell constructors.
var (
	Float64 = dataframe.Float64
	Int64   = dataframe.Int64
	Str     = dataframe.Str
	BoolVal = dataframe.BoolVal
)

// FitModel fits a PMNF performance model to raw (parameter, measurement)
// pairs — the standalone form of Thicket.ModelExtrap.
func FitModel(params, measurements []float64, opts ExtrapOptions) (ExtrapModel, error) {
	return extrap.Fit(params, measurements, opts)
}

// Scale standardizes a sample matrix to zero mean and unit variance.
func Scale(m Matrix) (Matrix, error) {
	var s mlkit.StandardScaler
	return s.FitTransform(m)
}

// KMeans clusters samples with k-means++ seeded Lloyd iterations.
func KMeans(m Matrix, k int, seed int64) (*KMeansResult, error) {
	return mlkit.KMeans(m, k, mlkit.KMeansOptions{Seed: seed})
}

// ChooseK selects the cluster count in [kMin,kMax] by silhouette score.
func ChooseK(m Matrix, kMin, kMax int, seed int64) (int, *KMeansResult, error) {
	return mlkit.ChooseK(m, kMin, kMax, mlkit.KMeansOptions{Seed: seed})
}

// Describe summarizes a sample (count/mean/std/quartiles).
func Describe(xs []float64) stats.Summary { return stats.Describe(xs) }

// Two-parameter modeling and serialization extensions.
type (
	// ExtrapModel2 is a fitted two-parameter PMNF model.
	ExtrapModel2 = extrap.Model2
	// ExtrapOptions2 tunes the two-parameter search.
	ExtrapOptions2 = extrap.Options2
	// ExtrapFraction is a rational exponent for custom search lattices.
	ExtrapFraction = extrap.Fraction
	// NodeModel2 pairs a node with its two-parameter model.
	NodeModel2 = core.NodeModel2
	// PCAResult is a fitted principal component analysis.
	PCAResult = mlkit.PCAResult
)

// FitModel2 fits a two-parameter PMNF model to raw (p, q, y) triples —
// Extra-P's multi-parameter modeling.
func FitModel2(ps, qs, ys []float64, opts ExtrapOptions2) (ExtrapModel2, error) {
	return extrap.Fit2(ps, qs, ys, opts)
}

// PCA computes the top nComponents principal components of a sample
// matrix (the scikit-learn integration the paper demonstrates alongside
// clustering, §4.2.2).
func PCA(m Matrix, nComponents int) (*PCAResult, error) {
	return mlkit.PCA(m, nComponents)
}

// LoadThicket reads a serialized thicket object (written by
// Thicket.Save/WriteJSON) from disk.
func LoadThicket(path string) (*Thicket, error) { return core.LoadThicket(path) }

// ThicketFromBytes parses a serialized thicket object.
func ThicketFromBytes(data []byte) (*Thicket, error) { return core.ThicketFromBytes(data) }

// Columnar ensemble store (persisting and serving ensembles).
type (
	// Store is a binary columnar ensemble store: opening reads only
	// headers, Load decodes columns in parallel, and LoadProjection
	// reads just the requested metric columns. A directory store grows
	// by appends and compaction; a single-file store is written once.
	Store = store.Store
	// StoreOptions tunes store opening (decoded-column cache budget).
	StoreOptions = store.Options
	// StoreInfo is a store's header-level summary.
	StoreInfo = store.Info
	// Server is the thicketd HTTP query service over one ensemble.
	Server = server.Server
	// ServerOptions bounds the service (concurrency, request timeout).
	ServerOptions = server.Options
)

// CreateStore writes th as a new single-file, single-segment ensemble
// store at path: an export written once, which every reader opens and
// which refuses appends. A store that grows is a directory store: pass
// a single-file store's Load to CreateDirStore to rebuild it as one.
func CreateStore(path string, th *Thicket) error { return store.Create(path, th) }

// OpenStore opens an existing ensemble store, reading only its headers.
func OpenStore(path string) (*Store, error) { return store.Open(path) }

// OpenStoreWithOptions opens a store with an explicit cache budget.
func OpenStoreWithOptions(path string, opts StoreOptions) (*Store, error) {
	return store.OpenWithOptions(path, opts)
}

// StoreFromThicket holds th as a read-only, one-segment store in memory,
// so that a thicket that did not come from a store can be filtered,
// explained and served through the same query plan as one that did.
func StoreFromThicket(th *Thicket) (*Store, error) { return store.FromThicket(th) }

// NewServer builds the thicketd HTTP query service over a loaded
// thicket and the store it came from (StoreFromThicket for an ensemble
// that did not come from one).
func NewServer(th *Thicket, st *Store, opts ServerOptions) *Server {
	return server.New(th, st, opts)
}

// Compiled metadata queries (predicate pushdown, see repro/internal/plan).
type (
	// Predicate is one parsed metadata filter ("col<op>value") with the
	// endpoints' comparison semantics: numeric three-way compare when
	// both sides parse as floats, lexicographic otherwise.
	Predicate = plan.Predicate
	// PlanStats reports what one compiled execution touched: segments
	// pruned via zone maps, blocks decoded vs skipped, rows
	// materialized.
	PlanStats = plan.ExecStats
)

// ErrUnknownColumn marks a predicate column that is neither a metadata
// column nor an index level (classify with errors.Is).
var ErrUnknownColumn = plan.ErrUnknownColumn

// CompilePredicates parses "col<op>value" filter expressions
// (operators =, !=, <, <=, >, >=) into a conjunction.
func CompilePredicates(exprs []string) ([]Predicate, error) { return plan.Compile(exprs) }

// DescribePredicates renders a compiled conjunction back to its
// comma-joined source form for log lines and CLI headers.
func DescribePredicates(preds []Predicate) string { return plan.Describe(preds) }

// FilterStore executes a compiled predicate conjunction directly
// against a store: segment zone maps and dictionary membership prune
// whole segments before any column decode, survivors are filtered
// vectorized, and only matching profiles are materialized. The result
// is bit-identical to loading everything and filtering in memory. Its
// call tree is shared, read-only, with every other result over the same
// store layout.
func FilterStore(st *Store, preds []Predicate) (*Thicket, PlanStats, error) {
	return plan.ExecuteStore(st, preds)
}

// Query plans (EXPLAIN/ANALYZE, see repro/internal/plan). The same
// trees back thicketd's explain= query parameter and /debug/querylog.
type (
	// QueryPlan is a structured query plan: per-segment prune verdicts
	// with the deciding predicate, per-column block accounting, totals,
	// and (after an analyzed execution) per-stage wall times.
	QueryPlan = plan.Explain
	// SegmentExplain is one segment's line in a QueryPlan.
	SegmentExplain = plan.SegmentExplain
	// ColumnExplain is one column's block accounting in a QueryPlan.
	ColumnExplain = plan.ColumnExplain
	// StageTimes are a QueryPlan's per-stage wall times in nanoseconds.
	StageTimes = plan.StageTimes
)

// ExplainStore computes a filter's plan tree against a store from
// segment headers alone — no block decodes, no result (EXPLAIN).
// Verdicts and deciding predicates are exact; scanned-segment block and
// row counts are would-decode estimates.
func ExplainStore(st *Store, preds []Predicate) (*QueryPlan, error) {
	return plan.PlanStore(context.Background(), st, preds)
}

// AnalyzeStore executes the pushdown filter and returns the filtered
// thicket together with its measured plan tree (EXPLAIN ANALYZE). The
// result is bit-identical to FilterStore's and shares its call tree the
// same way.
func AnalyzeStore(st *Store, preds []Predicate) (*Thicket, *QueryPlan, error) {
	return plan.AnalyzeStore(context.Background(), st, preds)
}

// Streaming ingest (WAL + LSM-style segment lifecycle, see
// repro/internal/ingest).
type (
	// Ingester streams profiles into a store through a crash-safe
	// write-ahead log, flushing level-0 segments and compacting runs of
	// segments in the background.
	Ingester = ingest.Ingester
	// IngestOptions tunes the ingest pipeline (queue depth, flush
	// cadence, compaction run length, WAL fsync policy).
	IngestOptions = ingest.Options
	// IngestSyncPolicy selects when the WAL fsyncs.
	IngestSyncPolicy = ingest.SyncPolicy
)

// Ingest admission-control sentinels, for mapping onto HTTP statuses.
var (
	ErrIngestBacklogged = ingest.ErrBacklogged
	ErrIngestBadPayload = ingest.ErrBadPayload
	ErrIngestClosed     = ingest.ErrClosed
)

// NewIngester starts the streaming-ingest pipeline over an open
// directory store: WAL replay (crash recovery), the single writer
// goroutine, and the background compactor. A single-file store is
// refused before the WAL opens. Always Close it.
func NewIngester(st *Store, opts IngestOptions) (*Ingester, error) {
	return ingest.New(st, opts)
}

// ParseIngestSyncPolicy parses "batch", "always", or "none".
func ParseIngestSyncPolicy(s string) (IngestSyncPolicy, error) {
	return ingest.ParseSyncPolicy(s)
}

// CreateDirStore writes th as a new directory-layout ensemble store —
// the one layout that grows: each append writes one segment file and
// commits by an atomic manifest swap, as each compaction does.
func CreateDirStore(dir string, th *Thicket) error { return store.CreateDir(dir, th) }

// InitDirStore creates an empty directory-layout store; profileLevel ""
// selects the default. Profiles arrive later via ingest or Append.
func InitDirStore(dir, profileLevel string) error { return store.InitDir(dir, profileLevel) }

// CompactStore merges every segment of a directory store into one fully
// sorted segment — the terminal state background compaction trends
// toward, byte-identical to a batch-built store of the same profiles.
func CompactStore(st *Store) error { return ingest.CompactAll(st) }

// Observability (self-profiling, see repro/internal/telemetry).
type (
	// TraceNode is one exported telemetry span (a finished timed region).
	TraceNode = telemetry.TraceNode
	// TraceCollector retains finished span trees for export.
	TraceCollector = telemetry.Collector
	// TracePolicy is a collector's sampling policy: head-based
	// probabilistic sampling plus tail retention of slow traces.
	TracePolicy = telemetry.Policy
	// RetainedTrace is one collected trace annotated with why it
	// survived sampling.
	RetainedTrace = telemetry.RetainedTrace
	// TraceContext is a W3C trace-context identity (traceparent header).
	TraceContext = telemetry.TraceContext
	// MetricsRegistry holds typed counters/gauges/histograms and renders
	// them in the Prometheus text format.
	MetricsRegistry = telemetry.Registry
	// Monitor is the continuous self-monitoring sampler: registry +
	// runtime metrics into a timestamped ring, declarative alert rules
	// (including per-endpoint latency baselines, whose IsSlow is the
	// tail-sampling judge), and optional queryable self-data stores —
	// the dogfood loop feeding thicketd's history back to its own EDA.
	Monitor = monitor.Sampler
	// MonitorOptions configures the monitor sampler, including the trace
	// collector whose slow traces each tick drains.
	MonitorOptions = monitor.Options
	// MonitorHistoryOptions configures the self-data stores, the
	// directory stores every sample and every drained slow trace stream
	// into through the ingest path.
	MonitorHistoryOptions = monitor.HistoryOptions
	// AlertRule is one declarative monitor alert (threshold, rate,
	// absence, or latency baseline).
	AlertRule = monitor.Rule
)

// NewTraceContext mints a fresh sampled W3C trace context.
func NewTraceContext() TraceContext { return telemetry.NewTraceContext() }

// ParseTraceparent parses a W3C traceparent header.
func ParseTraceparent(h string) (TraceContext, error) { return telemetry.ParseTraceparent(h) }

// NewMonitor builds the continuous self-monitoring sampler. Call Run
// for wall-clock sampling or Tick for clock-injected sampling, and
// Close to drain the last slow traces and flush the self-data stores.
func NewMonitor(opts MonitorOptions) (*Monitor, error) { return monitor.New(opts) }

// DefaultAlertRules is the shipped monitor alert set: heap growth, GC
// pause p99, goroutine leak, ingest-queue saturation, cache hit-rate
// collapse, and per-endpoint and per-span latency baselines.
func DefaultAlertRules() []AlertRule { return monitor.DefaultRules() }

// LoadAlertRules reads and validates a JSON alert-rules file.
func LoadAlertRules(path string) ([]AlertRule, error) { return monitor.LoadRules(path) }

// NewJSONLogger returns the canonical structured logger: one JSON
// object per line with the shared telemetry field names.
func NewJSONLogger(w io.Writer, level slog.Leveler) *slog.Logger {
	return telemetry.NewJSONLogger(w, level)
}

// SetStoreLogger directs structured store events (create, open, append)
// to logger; nil restores the default silent logger.
func SetStoreLogger(logger *slog.Logger) { store.SetLogger(logger) }

// EnableTelemetry flips span collection on or off at runtime and returns
// the previous state. When off (the default unless THICKET_TELEMETRY is
// set), instrumented code pays one atomic load per operation.
func EnableTelemetry(on bool) bool { return telemetry.SetEnabled(on) }

// TelemetryEnabled reports whether span collection is on.
func TelemetryEnabled() bool { return telemetry.Enabled() }

// SetTraceCollector installs c as the destination for finished span
// trees (nil uninstalls) and returns the previous collector.
func SetTraceCollector(c *TraceCollector) *TraceCollector { return telemetry.SetCollector(c) }

// DefaultMetrics returns the process-wide metrics registry (kernel,
// store, parallel-engine, and span-duration metrics record here).
func DefaultMetrics() *MetricsRegistry { return telemetry.Default }

// WriteChromeTrace renders span trees as Chrome trace_event JSON,
// loadable by chrome://tracing and Perfetto.
func WriteChromeTrace(w io.Writer, trees []*TraceNode) error {
	return telemetry.WriteChromeTrace(w, trees)
}

// ProfileFromTrace converts collected span trees into a native thicket
// profile — the dogfooding exporter: thicket's own execution becomes a
// profile it can compose, aggregate, and query like any other input.
func ProfileFromTrace(trees []*TraceNode, meta map[string]Value) (*Profile, error) {
	return profile.FromTraceNodes(trees, meta)
}

// SaveTrace writes trees to path as Chrome trace_event JSON and to a
// sibling native thicket profile (path's ".json" suffix replaced by
// ".profile.json"). It returns the profile path.
func SaveTrace(path string, trees []*TraceNode) (string, error) {
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := telemetry.WriteChromeTrace(f, trees); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	p, err := profile.FromTraceNodes(trees, nil)
	if err != nil {
		return "", err
	}
	profilePath := strings.TrimSuffix(path, ".json") + ".profile.json"
	if err := p.Save(profilePath); err != nil {
		return "", err
	}
	return profilePath, nil
}
