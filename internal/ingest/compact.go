package ingest

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/store"
)

// CompactSegments merges the named run of adjacent segments into one
// segment at the given level. The store reads the run in one gather,
// which sortNodeMajor lays out as the batch builder does, so compacted
// segments are indistinguishable from batch-built ones (dictionary
// pages re-folded in the same first-appearance order, min/max stats
// recomputed). The store enforces that gens form a contiguous run in
// layout order.
func CompactSegments(st *store.Store, gens []int64, level int) error {
	merged, err := st.LoadSegments(gens)
	if err == nil {
		merged, err = sortNodeMajor(merged)
	}
	if err != nil {
		return err
	}
	return st.ReplaceSegments(gens, merged, level)
}

// CompactAll force-merges every live segment into a single top-level
// segment. A store with one (or zero) segments is left alone.
func CompactAll(st *store.Store) error {
	segs := st.Segments()
	if len(segs) < 2 {
		return nil
	}
	gens := make([]int64, len(segs))
	maxLevel := 0
	for i, sg := range segs {
		gens[i] = sg.Gen
		if sg.Level > maxLevel {
			maxLevel = sg.Level
		}
	}
	return CompactSegments(st, gens, maxLevel+1)
}

// sortNodeMajor reorders a thicket's performance rows into the batch
// builder's layout: call-tree nodes in pre-order, and within each node
// the profiles in arrival order. The store's gather stacks segments
// segment-major, which preserves per-node arrival order, so a *stable*
// sort by node rank is exactly the permutation from streamed layout to
// batch layout — making a fully compacted store byte-identical to one
// built from the same profiles in a single FromProfiles call.
func sortNodeMajor(th *core.Thicket) (*core.Thicket, error) {
	nodes := th.Tree.Nodes() // pre-order
	rank := make(map[string]int, len(nodes))
	for i, n := range nodes {
		rank[n.PathString()] = i
	}
	lv := th.PerfData.Index().LevelByName(core.NodeLevel)
	if lv == nil {
		return nil, fmt.Errorf("ingest: perf data lacks index level %q", core.NodeLevel)
	}
	n := th.PerfData.NRows()
	// Node levels are dictionary-encoded strings: rank rows via their
	// codes instead of re-materializing every path string.
	dict, codes := lv.StringData()
	codeRank := make([]int, dict.Len())
	for c := range codeRank {
		r, ok := rank[dict.Word(uint32(c))]
		if !ok {
			r = len(nodes) // unknown paths sort last; Validate rejects them anyway
		}
		codeRank[c] = r
	}
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	sort.SliceStable(rows, func(a, b int) bool {
		return codeRank[codes[rows[a]]] < codeRank[codes[rows[b]]]
	})
	perf := th.PerfData.SelectRows(rows)
	return core.FromParts(th.Tree, perf, th.Metadata, nil, th.ProfileLevelName())
}
