package plan

import (
	"context"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/dataframe"
	"repro/internal/store"
)

// ExecStats describes what one execution touched: how many segments the
// zone maps pruned outright, how many blocks were decoded versus skipped,
// and how many rows survived into materialized frames. The server exports
// these per endpoint; the bit-identity tests assert on them.
type ExecStats struct {
	Segments         int `json:"segments"`          // segments in the snapshot
	SegmentsPruned   int `json:"segments_pruned"`   // segments skipped whole on header evidence
	BlocksScanned    int `json:"blocks_scanned"`    // meta+perf blocks decoded (survivor segments)
	BlocksSkipped    int `json:"blocks_skipped"`    // meta+perf blocks never read (pruned segments)
	RowsScanned      int `json:"rows_scanned"`      // metadata rows evaluated by filter kernels
	RowsMaterialized int `json:"rows_materialized"` // metadata rows surviving all predicates
	Rows             int `json:"rows"`              // total metadata rows in the store
}

// execMode selects how far an execution goes.
type execMode uint8

const (
	// execAnalyze executes fully and records the Explain tree with
	// measured block counts and stage times.
	execAnalyze execMode = iota
	// execPlanOnly stops after the prune verdicts: no block decodes, no
	// materialization; scanned counts are would-decode estimates.
	execPlanOnly
)

// filterPlain dispatches one predicate over one series to the vectorized
// kernel matching its kind, falling back to boxed evaluation for the
// shapes that have no packed form (numeric columns compared against a
// non-numeric literal render row by row).
func filterPlain(sel dataframe.Sel, s *dataframe.Series, p Predicate) dataframe.Sel {
	nulls := s.Nulls()
	switch s.Kind() {
	case dataframe.Float:
		if p.rhsOK {
			return dataframe.FilterFloat64(sel, s.FloatData(), nulls, p.cmp, p.rhs, p.Matches(dataframe.Null(dataframe.Float)))
		}
	case dataframe.Int:
		if p.rhsOK {
			return dataframe.FilterInt64(sel, s.IntData(), nulls, p.cmp, p.rhs, p.Matches(dataframe.Null(dataframe.Int)))
		}
	case dataframe.Bool:
		return dataframe.FilterBools(sel, s.BoolData(), nulls,
			p.Matches(dataframe.BoolVal(true)),
			p.Matches(dataframe.BoolVal(false)),
			p.Matches(dataframe.Null(dataframe.Bool)))
	case dataframe.String:
		if dict, codes := s.StringData(); dict != nil {
			match := make([]bool, dict.Len())
			for c := range match {
				match[c] = p.Matches(dataframe.Str(dict.Word(uint32(c))))
			}
			return dataframe.FilterCodes(sel, codes, nulls, match, p.Matches(dataframe.Null(dataframe.String)))
		}
	}
	return dataframe.FilterFunc(sel, s.Len(), func(r int) bool { return p.Matches(s.At(r)) })
}

// colResolution is where a predicate's column lands in the union schema
// the naive path would have concatenated: a specific full key, an
// ambiguous leaf, or nothing — plus whether an index level shares the
// name. Computed once per query from segment headers alone.
type colResolution struct {
	mode    resolveMode
	key     dataframe.ColKey // set when mode == resolveKey
	keyName string           // key.String()
	kind    dataframe.Kind   // union kind of key (null-fill kind)
	level   string           // index level of the same name, "" if none
}

type resolveMode uint8

const (
	resolveKey resolveMode = iota
	resolveAbsent
	resolveAmbiguous
)

// ExecuteStore runs the compiled filter directly against the store's
// segments: predicates resolve against the union schema assembled from
// headers, zone maps and dictionary pages prune whole segments before
// any block decodes, survivors evaluate vectorized, and only surviving
// rows materialize, gathered from the cached columns straight into the
// result, once per frame. The result is
// bit-identical to NaiveFilter(store.Load()) — same frames, same row
// order, same errors on unknown columns. Its call tree is the store's
// union tree for the layout it read, shared read-only with every other
// result over that layout, as the server's resident thicket is shared;
// its frames and stats table are its own. It is AnalyzeStore without a
// context, returning the plan tree's Stats.
func ExecuteStore(st *store.Store, preds []Predicate) (*core.Thicket, ExecStats, error) {
	out, ex, err := executeStore(context.Background(), st, preds, execAnalyze)
	return out, ex.Stats, err
}

// AnalyzeStore executes the pushdown filter and returns the result
// together with its measured plan tree (EXPLAIN ANALYZE): per-segment
// verdicts with the deciding predicate, per-column block accounting,
// and per-stage wall times. The context is checked at segment and block
// boundaries; progress flows to its plan.Progress and
// store.ScanObserver hooks. Every served where= request runs here.
func AnalyzeStore(ctx context.Context, st *store.Store, preds []Predicate) (*core.Thicket, *Explain, error) {
	return executeStore(ctx, st, preds, execAnalyze)
}

// PlanStore computes the prune verdicts from headers alone and returns
// the plan tree without decoding a single block (EXPLAIN): segment
// verdicts and deciding predicates are exact, scanned-segment block and
// row counts are the would-decode estimates.
func PlanStore(ctx context.Context, st *store.Store, preds []Predicate) (*Explain, error) {
	_, ex, err := executeStore(ctx, st, preds, execPlanOnly)
	return ex, err
}

// executeStore runs one plan and records its tree. The tree is returned
// even on error, carrying the counts accumulated so far.
func executeStore(ctx context.Context, st *store.Store, preds []Predicate, mode execMode) (*core.Thicket, *Explain, error) {
	ex := &Explain{Where: Describe(preds), Mode: "store", Analyzed: mode == execAnalyze}
	colIdx := explainCols{}
	es, stages := &ex.Stats, &ex.Stages
	sn := st.Snapshot()
	defer sn.Release()
	nseg := sn.NumSegments()
	es.Segments = nseg
	if nseg == 0 {
		_, err := st.Load() // reproduce the canonical empty-store error
		return nil, ex, err
	}

	// lap charges the wall time since the previous lap to one stage.
	mark := time.Now()
	lap := func(dst *int64) {
		now := time.Now()
		*dst += now.Sub(mark).Nanoseconds()
		mark = now
	}

	stageTo(ctx, StagePrune)
	res, err := resolveUnion(sn, preds)
	if err != nil {
		return nil, ex, err
	}

	// A single-segment store keeps its stored stats table, as Load does.
	withStats := nseg == 1
	var stats *dataframe.Frame
	// Each segment's rows in the result: the selected rows of a scanned
	// one, none of a pruned one, which still adds its schema.
	perfs := make([]dataframe.Part, 0, nseg)
	metas := make([]dataframe.Part, 0, nseg)
	for i := 0; i < nseg; i++ {
		if err := ctx.Err(); err != nil {
			return nil, ex, err
		}
		sv := sn.Segment(i)
		nrows := sv.NRows(store.FrameMeta)
		es.Rows += nrows
		se := SegmentExplain{Segment: i, Gen: sv.Gen(), Version: sv.Version(), Rows: nrows}
		metaCols, err := sv.Columns(store.FrameMeta)
		if err != nil {
			return nil, ex, err
		}
		match, cause := true, pruneCause{pred: -1}
		if len(preds) > 0 {
			match, cause = segmentCanMatch(sv, metaCols, preds, res)
		}
		lap(&stages.PruneNS)
		blocks := sv.BlockCount(store.FrameMeta, store.FramePerf)
		perfCols, err := sv.Columns(store.FramePerf)
		if err != nil {
			return nil, ex, err
		}
		addSegmentColumns(ex, colIdx, match, metaCols, perfCols)
		if !match {
			es.SegmentsPruned++
			es.BlocksSkipped += blocks
			se.Verdict = cause.verdict
			if cause.pred >= 0 {
				se.Predicate = preds[cause.pred].String()
			}
			se.BlocksSkipped = blocks
			ex.Segments = append(ex.Segments, se)
			if mode == execPlanOnly {
				continue
			}
			stageTo(ctx, StageMaterialize)
			part, err := sv.Empty(ctx, withStats)
			if err != nil {
				return nil, ex, err
			}
			perfs = append(perfs, dataframe.Part{Frame: part.Perf})
			metas = append(metas, dataframe.Part{Frame: part.Meta})
			stats = part.Stats
			lap(&stages.MaterializeNS)
			stageTo(ctx, StagePrune)
			continue
		}
		es.BlocksScanned += blocks
		es.RowsScanned += nrows
		se.Verdict = VerdictScanned
		se.BlocksDecoded = blocks
		if mode == execPlanOnly {
			// Prune-only: report the would-scan estimate and move on.
			es.RowsMaterialized += nrows
			se.RowsMatched = -1 // unknown without executing
			ex.Segments = append(ex.Segments, se)
			continue
		}
		stageTo(ctx, StageFilter)
		part, err := sv.Scan(ctx, withStats)
		if err != nil {
			return nil, ex, err
		}
		sel := evalSegment(part.Meta, preds, res)
		lap(&stages.FilterNS)
		es.RowsMaterialized += len(sel)
		se.RowsMatched = len(sel)
		ex.Segments = append(ex.Segments, se)
		stageTo(ctx, StageMaterialize)
		// The naive filter keeps the selected metadata rows and the perf
		// rows of their profiles, each in row order; the segment's
		// ordinals find the perf rows.
		perfs = append(perfs, dataframe.Part{Frame: part.Perf, Rows: core.PerfRows(part.Ordinals, sel, nrows)})
		metas = append(metas, dataframe.Part{Frame: part.Meta, Rows: dataframe.SelToRows(sel)})
		stats = part.Stats
		lap(&stages.MaterializeNS)
		stageTo(ctx, StagePrune)
	}
	if mode == execPlanOnly {
		return nil, ex, nil
	}
	stageTo(ctx, StageMaterialize)
	out, err := core.ConcatFrames(sn.Tree(), perfs, metas, sn.ProfileLevel())
	if err != nil {
		return nil, ex, err
	}
	if err := sn.CheckProfiles(out.Metadata); err != nil {
		return nil, ex, err
	}
	if stats != nil {
		out.Stats = stats.Copy()
	}
	lap(&stages.MaterializeNS)
	return out, ex, nil
}

// addSegmentColumns folds one segment's meta+perf blocks into the
// per-column aggregate, as decoded (scanned segment) or skipped
// (pruned).
func addSegmentColumns(ex *Explain, idx explainCols, decoded bool, frames ...*store.FrameColumns) {
	for _, fc := range frames {
		for _, cs := range fc.Blocks {
			ex.addColumn(idx, cs.Name, decoded)
		}
	}
}

// resolveUnion reconstructs, from headers alone, how each predicate
// column would resolve against the concatenated metadata frame the
// naive path builds: union of full column keys in first-appearance
// order, union kind from the first appearance, index levels from the
// first segment. Unknown columns error with the endpoints' message.
func resolveUnion(sn *store.Snapshot, preds []Predicate) ([]colResolution, error) {
	type spec struct {
		key  dataframe.ColKey
		kind dataframe.Kind
	}
	var specs []spec
	seen := map[string]bool{}
	var levels []string
	for i := 0; i < sn.NumSegments(); i++ {
		cols, err := sn.Segment(i).Columns(store.FrameMeta)
		if err != nil {
			return nil, err
		}
		for _, cs := range cols.Blocks {
			if cs.Level {
				if i == 0 {
					levels = append(levels, cs.Key.Leaf())
				}
				continue
			}
			if !seen[cs.Name] {
				seen[cs.Name] = true
				specs = append(specs, spec{key: cs.Key, kind: cs.Kind})
			}
		}
	}
	hasLevel := func(name string) string {
		for _, l := range levels {
			if l == name {
				return name
			}
		}
		return ""
	}
	out := make([]colResolution, len(preds))
	for pi, p := range preds {
		r := colResolution{level: hasLevel(p.Column)}
		exact := -1
		var leaves []int
		for si, sp := range specs {
			if len(sp.key) == 1 && sp.key[0] == p.Column {
				exact = si
			}
			if sp.key.Leaf() == p.Column {
				leaves = append(leaves, si)
			}
		}
		switch {
		case exact >= 0:
			r.mode, r.key, r.kind = resolveKey, specs[exact].key, specs[exact].kind
		case len(leaves) == 1:
			r.mode, r.key, r.kind = resolveKey, specs[leaves[0]].key, specs[leaves[0]].kind
		case len(leaves) == 0:
			r.mode = resolveAbsent
		default:
			r.mode = resolveAmbiguous
		}
		if r.mode != resolveKey && r.level == "" {
			return nil, unknownColumnError(p.Column)
		}
		r.keyName = r.key.String()
		out[pi] = r
	}
	return out, nil
}

// evalSegment evaluates the conjunction over one segment's loaded
// metadata frame using the union resolution — a segment that lacks the
// resolved key sees the constant null the outer concat would have
// filled in, and the index-level fallback applies per row.
func evalSegment(meta *dataframe.Frame, preds []Predicate, res []colResolution) dataframe.Sel {
	n := meta.NRows()
	var sel dataframe.Sel
	for pi := range preds {
		p, r := preds[pi], res[pi]
		var lvl *dataframe.Series
		if r.level != "" {
			lvl = meta.Index().LevelByName(r.level)
		}
		var col *dataframe.Series
		nullKind := dataframe.String // Row.Value renders resolution failures as String nulls
		if r.mode == resolveKey {
			col, _ = meta.Column(r.key)
			nullKind = r.kind
		}
		switch {
		case col == nil && lvl != nil:
			sel = filterPlain(sel, lvl, p)
		case col == nil:
			sel = dataframe.FilterConst(sel, n, p.Matches(dataframe.Null(nullKind)))
		case lvl == nil:
			sel = filterPlain(sel, col, p)
		default:
			sel = dataframe.FilterFunc(sel, n, func(row int) bool {
				v := col.At(row)
				if v.IsNull() {
					v = lvl.At(row)
				}
				return p.Matches(v)
			})
		}
		if len(sel) == 0 && sel != nil {
			break
		}
	}
	if sel == nil {
		sel = dataframe.FilterConst(nil, n, true)
	}
	return sel
}

// pruneCause names the header evidence that ruled a segment out: the
// verdict string and the index of the deciding predicate.
type pruneCause struct {
	verdict string
	pred    int
}

// segmentCanMatch decides from header statistics whether any row of the
// segment could satisfy every predicate, and — when not — which
// predicate and which class of evidence decided. It must never return
// false for a segment with a matching row; returning true merely costs
// a scan.
func segmentCanMatch(sv store.SegmentView, cols *store.FrameColumns, preds []Predicate, res []colResolution) (bool, pruneCause) {
	nrows := sv.NRows(store.FrameMeta)
	for pi := range preds {
		p, r := preds[pi], res[pi]
		var lstats store.ColumnStats
		hasLevel := false
		if r.level != "" {
			lstats, hasLevel = cols.Level(r.level)
		}
		ok, verdict := true, ""
		switch {
		case r.mode != resolveKey:
			if hasLevel {
				ok, verdict = canMatchPlain(sv, lstats, nrows, p)
			} else if !p.Matches(dataframe.Null(dataframe.String)) {
				// Every row reads the constant null the union would fill in.
				ok, verdict = false, VerdictPrunedNullCount
			}
		default:
			cs, present := cols.Column(r.keyName)
			switch {
			case !present && hasLevel:
				ok, verdict = canMatchPlain(sv, lstats, nrows, p)
			case !present:
				if !p.Matches(dataframe.Null(r.kind)) {
					ok, verdict = false, VerdictPrunedNullCount
				}
			case !hasLevel:
				ok, verdict = canMatchPlain(sv, cs, nrows, p)
			case cs.Nulls == 0:
				// No null cells, so the level fallback never fires.
				ok, verdict = canMatchPlain(sv, cs, nrows, p)
			default:
				// Rows see either a non-null column value or, on null
				// cells, the level value (null or not). The column's own
				// evidence names the verdict when both sides rule out.
				colOK, colVerdict := canMatchNonNull(sv, cs, nrows, p)
				if !colOK {
					var lvlOK bool
					lvlOK, _ = canMatchPlain(sv, lstats, nrows, p)
					if !lvlOK {
						ok, verdict = false, colVerdict
					}
				}
			}
		}
		if !ok {
			return false, pruneCause{verdict: verdict, pred: pi}
		}
	}
	return true, pruneCause{pred: -1}
}

// canMatchPlain reports whether any cell of the described column — null
// or not — could satisfy the predicate, with the verdict class when not.
func canMatchPlain(sv store.SegmentView, cs store.ColumnStats, nrows int, p Predicate) (bool, string) {
	if cs.Nulls != 0 && p.Matches(dataframe.Null(cs.Kind)) {
		return true, "" // nulls possible (or unknown) and a null matches
	}
	return canMatchNonNull(sv, cs, nrows, p)
}

// canMatchNonNull reports whether any NON-NULL cell of the described
// column could satisfy the predicate, using only header statistics and
// (for string equality) the block's dictionary page. Unknown statistics
// always answer true. A false answer names the evidence class: the
// null count (all cells null), the zone map (range or value-domain
// proof), or the dictionary page.
func canMatchNonNull(sv store.SegmentView, cs store.ColumnStats, nrows int, p Predicate) (bool, string) {
	if cs.Nulls >= 0 && cs.Nulls == nrows {
		return false, VerdictPrunedNullCount // every cell is null
	}
	switch cs.Kind {
	case dataframe.Int, dataframe.Float:
		if !p.rhsOK {
			return true, "" // rendered-string comparison: no zone map applies
		}
		if math.IsNaN(p.rhs) {
			// Every non-null numeric three-way-compares 0 against NaN.
			if p.cmp.Match(0) {
				return true, ""
			}
			return false, VerdictPrunedZoneMap
		}
		if cs.Min == nil || cs.Max == nil {
			return true, "" // no zone map (pre-v2, all-null, or NaN-poisoned)
		}
		lo, hi := *cs.Min, *cs.Max
		ok := true
		switch p.cmp {
		case dataframe.CmpEq:
			ok = lo <= p.rhs && p.rhs <= hi
		case dataframe.CmpNe:
			ok = !(lo == hi && lo == p.rhs)
		case dataframe.CmpLt:
			ok = lo < p.rhs
		case dataframe.CmpLe:
			ok = lo <= p.rhs
		case dataframe.CmpGt:
			ok = hi > p.rhs
		case dataframe.CmpGe:
			ok = hi >= p.rhs
		}
		if !ok {
			return false, VerdictPrunedZoneMap
		}
		return true, ""
	case dataframe.Bool:
		if p.Matches(dataframe.BoolVal(true)) || p.Matches(dataframe.BoolVal(false)) {
			return true, ""
		}
		return false, VerdictPrunedZoneMap
	case dataframe.String:
		if p.cmp == dataframe.CmpEq && !p.rhsOK {
			// Equality against a non-numeric literal matches a word iff
			// the strings are identical, so the dictionary page decides.
			// A probe error never prunes: the scan will surface it.
			if has, err := sv.DictHasWord(store.FrameMeta, cs, p.Value); err == nil && !has {
				return false, VerdictPrunedDict
			}
		}
		return true, ""
	}
	return true, ""
}
