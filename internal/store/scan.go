package store

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync/atomic"

	"repro/internal/calltree"
	"repro/internal/core"
	"repro/internal/dataframe"
	"repro/internal/telemetry"
)

// scan.go is the zone-map read API: a pinned, header-level view of the
// live segment set that lets a query planner decide — per segment, per
// predicate — whether any row can match before a single block is
// decoded. It exposes exactly what the planner needs and nothing more:
// per-column min/max/null statistics from the header, dictionary-page
// membership probes that parse only a block's word table, each
// segment's part of a result (its decoded frames when scanned, its
// schema-only frames when pruned: a pruned segment still contributes its
// column schema to a multi-segment union), and the union call tree.
// What these cost beyond the block reads is paid once per segment, or
// once per commit for the union tree, not once per query.

// Exported frame names for Snapshot consumers.
const (
	FramePerf = framePerf
	FrameMeta = frameMeta_
)

// ColumnStats is one block's header-level description: key, kind, zone
// map, and null count. Level marks index-level blocks.
type ColumnStats struct {
	Key dataframe.ColKey
	// Name qualifies the block by its frame, "frame:key" with the key
	// rendered by ColKey.String: the name plans report a column under.
	Name  string
	Kind  dataframe.Kind
	Level bool
	// Min/Max are the zone map over non-null values; nil means "no
	// statistics" (string/bool columns, all-null columns, NaN-poisoned
	// columns, pre-v2 segments) and forbids skipping on range grounds.
	Min *float64
	Max *float64
	// Nulls counts null rows; -1 means "unknown" (pre-v3 segments).
	Nulls int

	cm columnMeta
}

// FrameColumns describes one frame of a segment from its header alone:
// its blocks in block order, index levels first, then data columns, and
// where each level name and column key lands among them. A segment
// builds it once per frame and every caller shares it: read-only.
type FrameColumns struct {
	Blocks []ColumnStats
	levels map[string]int // level name → block; a later level wins
	keys   map[string]int // ColKey.String() → block; a later column wins
}

// Level returns the index level block named name.
func (fc *FrameColumns) Level(name string) (ColumnStats, bool) {
	i, ok := fc.levels[name]
	if !ok {
		return ColumnStats{}, false
	}
	return fc.Blocks[i], true
}

// Column returns the data column block whose key renders as key.
func (fc *FrameColumns) Column(key string) (ColumnStats, bool) {
	i, ok := fc.keys[key]
	if !ok {
		return ColumnStats{}, false
	}
	return fc.Blocks[i], true
}

// Snapshot is one immutable view of the store, as a commit, Open or
// Close published it: the live segments in layout order, the layout and
// content generations of exactly those segments, their union call tree,
// and the verdict on whether two of them share a profile. A reader pins
// the current view (Store.Snapshot) and must Release it; its segments
// stay readable, even across compaction, until then.
type Snapshot struct {
	st              *Store
	segs            []*segment
	gen, contentGen int64          // layout and content generations of exactly segs
	tree            *calltree.Tree // union of segs' call trees, built by the publisher

	// refs counts the store's reference, held while this is the current
	// view, and each reader's pin. The release that drops it to zero
	// releases the segments.
	refs atomic.Int64

	// disjoint is the verdict of segmentsDisjoint: verdictUndrawn until
	// drawn or handed forward.
	disjoint atomic.Int32
}

// Snapshot pins the store's current view, for header-level planning and
// block reads. A pin takes no lock, allocates nothing and does no
// per-segment work: it raises the view's count, unless that has already
// drained to zero, in which case a newer view is published and it pins
// that one.
func (s *Store) Snapshot() *Snapshot {
	for {
		sn := s.view.Load()
		if n := sn.refs.Load(); n > 0 && sn.refs.CompareAndSwap(n, n+1) {
			return sn
		}
	}
}

// Release unpins the view. The last release of a view the store has
// swapped out releases its segments, and so closes (and, if compacted
// away, deletes) the files of those no newer view names.
func (sn *Snapshot) Release() {
	if sn.refs.Add(-1) == 0 {
		for _, sg := range sn.segs {
			sg.release()
		}
	}
}

// NumSegments reports the snapshot's segment count.
func (sn *Snapshot) NumSegments() int { return len(sn.segs) }

// ProfileLevel reports the shared profile index level name.
func (sn *Snapshot) ProfileLevel() string { return sn.st.ProfileLevel() }

// Segment returns the i-th segment view in layout order.
func (sn *Snapshot) Segment(i int) SegmentView {
	return SegmentView{st: sn.st, seg: sn.segs[i]}
}

// SegmentView is a header-level handle on one pinned segment.
type SegmentView struct {
	st  *Store
	seg *segment
}

// Gen reports the segment's generation stamp.
func (v SegmentView) Gen() int64 { return v.seg.gen }

// Version reports the segment's format version.
func (v SegmentView) Version() int { return v.seg.header.Version }

// NRows reports the named frame's row count from the header (0 when the
// frame is absent).
func (v SegmentView) NRows(frame string) int {
	if fm := v.seg.header.frame(frame); fm != nil {
		return fm.NRows
	}
	return 0
}

// Columns describes the named frame's blocks from the header alone. The
// header is immutable, so the segment describes each frame once, on
// first use, and shares the description with every caller.
func (v SegmentView) Columns(frame string) (*FrameColumns, error) {
	memo := v.seg.cols.Load()
	if memo == nil {
		m := make(map[string]*FrameColumns, len(v.seg.header.Frames))
		for i := range v.seg.header.Frames {
			fm := &v.seg.header.Frames[i]
			if fc, err := v.describe(fm); err == nil {
				m[fm.Name] = fc
			}
		}
		v.seg.cols.CompareAndSwap(nil, &m)
		memo = v.seg.cols.Load()
	}
	if fc := (*memo)[frame]; fc != nil {
		return fc, nil
	}
	fm := v.seg.header.frame(frame)
	if fm == nil {
		return nil, fmt.Errorf("store: %s: segment g%d has no frame %q", v.st.path, v.seg.gen, frame)
	}
	_, err := v.describe(fm) // a frame with a block of unknown kind fails every call
	return nil, err
}

// describe builds one frame's FrameColumns from its header entry.
func (v SegmentView) describe(fm *frameMeta) (*FrameColumns, error) {
	fc := &FrameColumns{
		Blocks: make([]ColumnStats, 0, len(fm.Levels)+len(fm.Cols)),
		levels: make(map[string]int, len(fm.Levels)),
		keys:   make(map[string]int, len(fm.Cols)),
	}
	add := func(cm columnMeta, level bool) error {
		kind, err := parseKindName(cm.Kind)
		if err != nil {
			return fmt.Errorf("store: %s: segment g%d frame %s block %v: %w", v.st.path, v.seg.gen, fm.Name, cm.Key, err)
		}
		key := dataframe.ColKey(cm.Key)
		cs := ColumnStats{
			Key:   key,
			Name:  fm.Name + ":" + key.String(),
			Kind:  kind,
			Level: level,
			Min:   cm.Min,
			Max:   cm.Max,
			Nulls: -1,
			cm:    cm,
		}
		if v.seg.header.Version >= 3 && cm.Nulls != nil {
			cs.Nulls = *cm.Nulls
		}
		if level {
			fc.levels[key.Leaf()] = len(fc.Blocks)
		} else {
			fc.keys[key.String()] = len(fc.Blocks)
		}
		fc.Blocks = append(fc.Blocks, cs)
		return nil
	}
	for _, cm := range fm.Levels {
		if err := add(cm, true); err != nil {
			return nil, err
		}
	}
	for _, cm := range fm.Cols {
		if err := add(cm, false); err != nil {
			return nil, err
		}
	}
	return fc, nil
}

// DictHasWord probes a string block's dictionary page for word without
// decoding any rows: it reads the raw block, verifies the CRC, and
// parses only the word table. Returns true — "cannot rule the word out"
// — for v1 plain-string blocks, which have no page to probe.
func (v SegmentView) DictHasWord(frame string, cs ColumnStats, word string) (bool, error) {
	buf := make([]byte, cs.cm.Length)
	if _, err := v.seg.r.ReadAt(buf, v.seg.dataOff+int64(cs.cm.Offset)); err != nil {
		return false, fmt.Errorf("store: %s: segment g%d frame %s block %v: %w", v.st.path, v.seg.gen, frame, cs.cm.Key, err)
	}
	if len(buf) < 4+2 {
		return false, fmt.Errorf("store: %s: segment g%d frame %s block %v: too short", v.st.path, v.seg.gen, frame, cs.cm.Key)
	}
	body, crcBytes := buf[:len(buf)-4], buf[len(buf)-4:]
	if got, want := crc32.Checksum(body, crcTable), binary.LittleEndian.Uint32(crcBytes); got != want {
		return false, fmt.Errorf("store: %s: segment g%d frame %s block %v: CRC mismatch", v.st.path, v.seg.gen, frame, cs.cm.Key)
	}
	if body[0] != kindStringDict && body[0] != kindDictRLE {
		return true, nil
	}
	rest := body[1:]
	n, sz := binary.Uvarint(rest) // row count
	if sz <= 0 {
		return false, fmt.Errorf("store: %s: segment g%d frame %s block %v: bad row count", v.st.path, v.seg.gen, frame, cs.cm.Key)
	}
	rest = rest[sz:]
	nullLen := (int(n) + 7) / 8
	if len(rest) < nullLen {
		return false, fmt.Errorf("store: %s: segment g%d frame %s block %v: truncated null bitmap", v.st.path, v.seg.gen, frame, cs.cm.Key)
	}
	rest = rest[nullLen:]
	nw, sz := binary.Uvarint(rest)
	if sz <= 0 || nw > uint64(len(rest)) {
		return false, fmt.Errorf("store: %s: segment g%d frame %s block %v: bad dictionary word count", v.st.path, v.seg.gen, frame, cs.cm.Key)
	}
	rest = rest[sz:]
	for w := uint64(0); w < nw; w++ {
		ln, sz := binary.Uvarint(rest)
		if sz <= 0 || ln > uint64(len(rest)) {
			return false, fmt.Errorf("store: %s: segment g%d frame %s block %v: bad dictionary word %d", v.st.path, v.seg.gen, frame, cs.cm.Key, w)
		}
		rest = rest[sz:]
		if uint64(len(word)) == ln && string(rest[:ln]) == word {
			return true, nil
		}
		rest = rest[ln:]
	}
	return false, nil
}

// SegmentPart is one segment's share of a result — a where= answer, or
// one of the store's own reads (Load, Refresh's tail, LoadSegments): its
// perf and metadata frames and, when the store has this one segment, its
// stored stats table. The frames of a scanned segment hold the column
// cache's series, shared with every other reader of those blocks, and
// those of a pruned one are the segment's own: callers must not modify
// either, and gather or copy what they hand on.
type SegmentPart struct {
	Perf, Meta *dataframe.Frame
	Stats      *dataframe.Frame // nil unless requested
	// Ordinals maps each Perf row onto its profile's Meta row (Scan only).
	Ordinals []int32

	tree *calltree.Tree // the segment's checked call tree, shared read-only
}

// headPart is what a segment contributes from its header alone: its
// call tree and schema-only perf and metadata frames.
type headPart struct {
	tree       *calltree.Tree
	perf, meta *dataframe.Frame
}

// head returns the segment's kept header part, or builds one that no
// check has passed yet (kept false).
func (v SegmentView) head() (hp *headPart, kept bool, err error) {
	if hp := v.seg.head.Load(); hp != nil {
		return hp, true, nil
	}
	tree := calltree.New()
	for i, p := range v.seg.header.TreePaths {
		if _, err := tree.AddPath(p); err != nil {
			return nil, false, fmt.Errorf("store: %s: segment g%d tree path %d: %w", v.st.path, v.seg.gen, i, err)
		}
	}
	perf, err := v.EmptyFrame(framePerf)
	if err != nil {
		return nil, false, err
	}
	meta, err := v.EmptyFrame(frameMeta_)
	if err != nil {
		return nil, false, err
	}
	return &headPart{tree: tree, perf: perf, meta: meta}, false, nil
}

// check checks a header part, and the stored stats table when given,
// with core.CheckParts, and keeps the part once it passes.
func (v SegmentView) check(hp *headPart, kept bool, stats *dataframe.Frame) error {
	if kept && stats == nil {
		return nil
	}
	if _, err := core.CheckParts(hp.tree, hp.perf, hp.meta, stats, v.seg.header.ProfileLevel); err != nil {
		return err
	}
	v.seg.head.CompareAndSwap(nil, hp)
	return nil
}

// Scan decodes the segment's perf and metadata frames — and, with
// withStats, its stored stats table; pass true only for a single-segment
// store, matching Store.Load — through the column cache, reading the
// blocks Store.Load reads, in the same order. ctx is checked at every
// block boundary and wired to the context's ScanObserver. The first scan
// checks the frames against the segment's tree as core.CheckParts does
// and, once that passes, keeps the check's verdict and the profile
// ordinals; a segment that fails fails every scan with the same error.
func (v SegmentView) Scan(ctx context.Context, withStats bool) (SegmentPart, error) {
	return v.scan(ctx, nil, withStats, nil)
}

// scan is Scan for the store's own reads as well: its frame reads open
// spans under sp, and keep restricts the perf columns it decodes (nil
// keeps all), as LoadProjection does.
func (v SegmentView) scan(ctx context.Context, sp *telemetry.Span, withStats bool, keep func(dataframe.ColKey) bool) (SegmentPart, error) {
	hp, kept, err := v.head()
	if err != nil {
		return SegmentPart{}, err
	}
	perf, err := v.st.loadFrame(ctx, sp, v.seg, framePerf, keep)
	if err != nil {
		return SegmentPart{}, err
	}
	meta, err := v.st.loadFrame(ctx, sp, v.seg, frameMeta_, nil)
	if err != nil {
		return SegmentPart{}, err
	}
	var stats *dataframe.Frame
	if withStats {
		if stats, err = v.st.loadFrame(ctx, sp, v.seg, frameStats, nil); err != nil {
			return SegmentPart{}, err
		}
	}
	ords := v.seg.ords.Load()
	if ords == nil {
		o, err := core.CheckParts(hp.tree, perf, meta, stats, v.seg.header.ProfileLevel)
		if err != nil {
			return SegmentPart{}, err
		}
		v.seg.ords.CompareAndSwap(nil, &o)
		ords = v.seg.ords.Load()
		// The decoded frames carry the header's index levels, all the
		// check reads, so the header part passes its own check too.
		v.seg.head.CompareAndSwap(nil, hp)
	} else if err := v.check(hp, kept, stats); err != nil {
		return SegmentPart{}, err
	}
	return SegmentPart{Perf: perf, Meta: meta, Stats: stats, Ordinals: *ords, tree: hp.tree}, nil
}

// Empty returns a pruned segment's part from the header alone: zero-row
// perf and metadata frames with the segment's schema. No meta or perf
// block is read; with withStats the stored stats table still decodes
// under ctx (a pruned single-segment store must reproduce the stats
// table the naive path carries over). The header part is checked as
// core.CheckParts checks parts, and kept once that passes.
func (v SegmentView) Empty(ctx context.Context, withStats bool) (SegmentPart, error) {
	hp, kept, err := v.head()
	if err != nil {
		return SegmentPart{}, err
	}
	var stats *dataframe.Frame
	if withStats {
		if stats, err = v.st.loadFrame(ctx, nil, v.seg, frameStats, nil); err != nil {
			return SegmentPart{}, err
		}
	}
	if err := v.check(hp, kept, stats); err != nil {
		return SegmentPart{}, err
	}
	return SegmentPart{Perf: hp.perf, Meta: hp.meta, Stats: stats}, nil
}

// Tree returns the union of the view's segment call trees, in layout
// order: the tree Store.Load's concatenation builds. The commit, Open or
// Close that published the view built it, and every reader shares it:
// read-only.
func (sn *Snapshot) Tree() *calltree.Tree { return sn.tree }

// EmptyFrame builds a zero-row frame with the named frame's exact
// schema — index level names/kinds and column keys/kinds — from the
// header, without reading any block. It equals SelectRows(loaded, nil)
// on every axis a Frame comparison sees.
func (v SegmentView) EmptyFrame(frame string) (*dataframe.Frame, error) {
	cols, err := v.Columns(frame)
	if err != nil {
		return nil, err
	}
	var levels []*dataframe.Series
	var keys []dataframe.ColKey
	var data []*dataframe.Series
	for _, cs := range cols.Blocks {
		s := dataframe.NewSeries(cs.Key.Leaf(), cs.Kind)
		if cs.Level {
			levels = append(levels, s)
			continue
		}
		keys = append(keys, cs.Key.Copy())
		data = append(data, s)
	}
	ix, err := dataframe.NewIndex(levels...)
	if err != nil {
		return nil, fmt.Errorf("store: %s: segment g%d frame %s: %w", v.st.path, v.seg.gen, frame, err)
	}
	return dataframe.NewFrameWithColIndex(ix, keys, data)
}

// BlockCount sums the named frames' block counts (levels + columns)
// from the header — the unit the planner's scanned/skipped accounting
// uses.
func (v SegmentView) BlockCount(frames ...string) int {
	n := 0
	for _, name := range frames {
		if fm := v.seg.header.frame(name); fm != nil {
			n += len(fm.Levels) + len(fm.Cols)
		}
	}
	return n
}
