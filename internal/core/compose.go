package core

import (
	"errors"
	"fmt"

	"repro/internal/calltree"
	"repro/internal/dataframe"
)

// Compose hierarchically composes thickets with the same index structure
// into one thicket with an additional column-index level (paper §3.2.2,
// Figure 4): the performance data is inner-joined on the (node, profile)
// hierarchical index — only keys present in every input survive — and
// each input's metric columns are nested under its group label (e.g.
// "CPU", "GPU").
//
// The composed metadata is the first input's, restricted to surviving
// profile-index values; per-group execution context stays available in
// the inputs. The composed stats table starts empty.
func Compose(groups []string, thickets []*Thicket) (*Thicket, error) {
	if len(groups) != len(thickets) {
		return nil, fmt.Errorf("core: %d group labels for %d thickets", len(groups), len(thickets))
	}
	if len(thickets) < 2 {
		return nil, fmt.Errorf("core: Compose requires at least two thickets")
	}
	seen := map[string]bool{}
	for _, g := range groups {
		if seen[g] {
			return nil, fmt.Errorf("core: duplicate group label %q", g)
		}
		seen[g] = true
	}
	first := thickets[0]
	for i, th := range thickets[1:] {
		if th.profileLevel != first.profileLevel {
			return nil, fmt.Errorf("core: thicket %d uses profile level %q, want %q (compose requires the same hierarchical index)", i+1, th.profileLevel, first.profileLevel)
		}
	}

	frames := make([]*dataframe.Frame, len(thickets))
	trees := make([]*calltree.Tree, len(thickets))
	for i, th := range thickets {
		frames[i] = th.PerfData
		trees[i] = th.Tree
	}
	perf, err := dataframe.InnerJoinOnIndex(groups, frames)
	if err != nil {
		return nil, err
	}
	tree := calltree.Intersect(trees...)

	// Surviving profiles: the first input's metadata rows that some
	// joined perf row maps onto.
	if perf.Index().LevelByName(first.profileLevel) == nil {
		return nil, fmt.Errorf("core: composed index lacks level %q", first.profileLevel)
	}
	keep := make([]bool, first.Metadata.NRows())
	for _, o := range profileOrdinals(perf, first.Metadata, first.profileLevel) {
		if o >= 0 {
			keep[o] = true
		}
	}
	meta := first.Metadata.Filter(func(r dataframe.Row) bool { return keep[r.Pos()] })

	return &Thicket{
		Tree:         tree,
		PerfData:     perf,
		Metadata:     meta,
		Stats:        emptyStats(tree),
		profileLevel: first.profileLevel,
	}, nil
}

// ErrSharedProfiles is the error for a concatenation whose inputs repeat
// a profile-index value.
var ErrSharedProfiles = errors.New("core: concatenated thickets share profile-index values")

// ConcatProfiles vertically concatenates thickets over the union of
// their profiles (same metric schema required): the trees are unioned
// and the metadata/performance tables stacked. Profile-index values must
// be distinct across inputs (ErrSharedProfiles).
func ConcatProfiles(thickets []*Thicket) (*Thicket, error) {
	if len(thickets) == 0 {
		return nil, fmt.Errorf("core: no thickets")
	}
	first := thickets[0]
	trees := make([]*calltree.Tree, len(thickets))
	perfs := make([]dataframe.Part, len(thickets))
	metas := make([]dataframe.Part, len(thickets))
	for i, th := range thickets {
		if th.profileLevel != first.profileLevel {
			return nil, fmt.Errorf("core: thicket %d uses profile level %q, want %q", i, th.profileLevel, first.profileLevel)
		}
		trees[i] = th.Tree
		perfs[i] = dataframe.AllRows(th.PerfData)
		metas[i] = dataframe.AllRows(th.Metadata)
	}
	th, err := ConcatFrames(calltree.Union(trees...), perfs, metas, first.profileLevel)
	if err != nil {
		return nil, err
	}
	if th.Metadata.Index().HasDuplicates() {
		return nil, ErrSharedProfiles
	}
	return th, nil
}

// ConcatFrames stacks the given rows of several parts' performance and
// metadata frames, in order, into one thicket over tree, which must hold
// every part's call tree; each result frame is gathered in one pass
// (dataframe.ConcatParts). Schemas may differ across parts (multi-tool
// ensembles): missing cells become nulls. Nothing is re-validated: the
// kept rows must already satisfy Validate against their own parts'
// trees, and their profile-index values must be distinct across parts,
// which callers prove or check themselves (ConcatProfiles checks its
// inputs; the store proves its segments disjoint once). The result owns
// fresh frames and the empty statistics table over tree, and shares tree
// itself.
func ConcatFrames(tree *calltree.Tree, perfs, metas []dataframe.Part, profileLevel string) (*Thicket, error) {
	perf, err := dataframe.ConcatParts(perfs...)
	if err != nil {
		return nil, fmt.Errorf("core: perf data: %w", err)
	}
	meta, err := dataframe.ConcatParts(metas...)
	if err != nil {
		return nil, fmt.Errorf("core: metadata: %w", err)
	}
	return &Thicket{
		Tree:         tree,
		PerfData:     perf,
		Metadata:     meta,
		Stats:        emptyStats(tree),
		profileLevel: profileLevel,
	}, nil
}
