package plan

import "context"

// explain.go is the query's self-description: every execution
// records, per segment, why the pushdown kept or pruned it (and which
// predicate decided), which column blocks were decoded versus skipped,
// how many rows matched, and where the wall time went. The tree is
// pure data — the server serializes it on explain= requests and into
// the query log, the CLI pretty-prints it — and collecting it costs a
// handful of header walks and timestamps, never an extra block read.

// Per-segment verdict strings. A segment is either scanned or pruned,
// and a pruned segment names the header evidence that ruled every row
// out: the numeric zone map (also covers value-domain proofs like a
// bool column matching neither value), the null count (all-null or
// absent columns whose constant null fails the predicate), or the
// dictionary page (an equality literal absent from the word table).
const (
	VerdictScanned         = "scanned"
	VerdictPrunedZoneMap   = "pruned-by-zonemap"
	VerdictPrunedNullCount = "pruned-by-nullcount"
	VerdictPrunedDict      = "pruned-by-dict"
)

// Stage names of the query-lifecycle state machine, in order. The
// serving layer reports the live stage per in-flight query; StageTimes
// records where the wall time went once the query completes.
const (
	StageCompile     = "compile"
	StagePrune       = "prune"
	StageFilter      = "filter"
	StageMaterialize = "materialize"
)

// SegmentExplain is one segment's line in the plan tree.
type SegmentExplain struct {
	Segment int    `json:"segment"` // position in snapshot layout order
	Gen     int64  `json:"gen"`     // segment generation stamp
	Version int    `json:"version"` // segment format version
	Rows    int    `json:"rows"`    // metadata rows in the segment
	Verdict string `json:"verdict"`
	// Predicate is the deciding predicate when pruned, "" when scanned.
	Predicate     string `json:"predicate,omitempty"`
	BlocksDecoded int    `json:"blocks_decoded"`
	BlocksSkipped int    `json:"blocks_skipped"`
	// RowsMatched counts rows surviving the vectorized filter; only
	// meaningful on an analyzed (executed) plan.
	RowsMatched int `json:"rows_matched"`
}

// ColumnExplain aggregates one column's block accounting across
// segments; the name is "frame:key" ("meta:compiler", "perf:time").
type ColumnExplain struct {
	Column        string `json:"column"`
	BlocksDecoded int    `json:"blocks_decoded"`
	BlocksSkipped int    `json:"blocks_skipped"`
}

// StageTimes are per-stage wall times in nanoseconds. CompileNS is
// filled by the caller that parsed the predicates; the executor fills
// the rest (prune: header resolution and zone-map verdicts; filter:
// block decode plus vectorized evaluation; materialize: building the
// surviving thicket).
type StageTimes struct {
	CompileNS     int64 `json:"compile_ns"`
	PruneNS       int64 `json:"prune_ns"`
	FilterNS      int64 `json:"filter_ns"`
	MaterializeNS int64 `json:"materialize_ns"`
}

// Explain is the structured plan tree for one query.
type Explain struct {
	Where string `json:"where"` // the predicate conjunction, source form
	Mode  string `json:"mode"`  // always "store": every plan runs over store segments
	// Analyzed is true when the plan was executed (block and row counts
	// are measurements); false for a prune-only plan, whose scanned
	// counts are would-decode estimates from headers.
	Analyzed bool             `json:"analyzed"`
	Segments []SegmentExplain `json:"segments,omitempty"`
	Columns  []ColumnExplain  `json:"columns,omitempty"`
	Stats    ExecStats        `json:"stats"`
	Stages   StageTimes       `json:"stages"`
}

// explainCols indexes Explain.Columns by name during collection.
type explainCols map[string]int

// addColumn accumulates one block into the per-column aggregate.
func (ex *Explain) addColumn(idx explainCols, name string, decoded bool) {
	i, ok := idx[name]
	if !ok {
		i = len(ex.Columns)
		idx[name] = i
		ex.Columns = append(ex.Columns, ColumnExplain{Column: name})
	}
	if decoded {
		ex.Columns[i].BlocksDecoded++
	} else {
		ex.Columns[i].BlocksSkipped++
	}
}

// Progress receives live query-stage transitions (compile → prune →
// filter → materialize). The serving layer implements it to expose the
// stage of each in-flight query; implementations must be cheap and
// safe for concurrent reads.
type Progress interface {
	Stage(stage string)
}

type progressKey struct{}

// WithProgress returns a context carrying p; executions driven by the
// returned context report stage transitions to it.
func WithProgress(ctx context.Context, p Progress) context.Context {
	return context.WithValue(ctx, progressKey{}, p)
}

// stageTo notifies the context's Progress hook, if any.
func stageTo(ctx context.Context, stage string) {
	if p, _ := ctx.Value(progressKey{}).(Progress); p != nil {
		p.Stage(stage)
	}
}
