package dataframe

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Index is a hierarchical row index: one or more named levels, each a
// Series of equal length. A row's key is the tuple of its level values.
// Thicket performance data uses a two-level index (node, profile); the
// metadata table uses a single profile level.
type Index struct {
	names  []string
	levels []*Series

	// lookup publishes the lazily built key→rows structure (integer key
	// ids, no per-row string encoding). The first use builds it and
	// publishes it with a compare-and-swap, so concurrent first uses are
	// race-free and all readers end up sharing one structure. It is
	// immutable once built, so deep copies and identity gathers share it
	// instead of rebuilding; mutation drops only the mutated index's
	// reference.
	lookup atomic.Pointer[indexLookup]
}

// indexLookup resolves composite keys to row positions through the
// dense-key-id kernel: a retained keySpace maps a []Value key to its id,
// and rows holds the ascending row list of every id.
type indexLookup struct {
	ks   *keySpace
	rows [][]int
}

// NewIndex builds an index from named levels. All levels must have equal
// length.
func NewIndex(levels ...*Series) (*Index, error) {
	if len(levels) == 0 {
		return nil, fmt.Errorf("dataframe: index requires at least one level")
	}
	n := levels[0].Len()
	names := make([]string, len(levels))
	for i, lv := range levels {
		if lv.Len() != n {
			return nil, fmt.Errorf("dataframe: index level %q has %d rows, want %d", lv.Name(), lv.Len(), n)
		}
		names[i] = lv.Name()
	}
	return &Index{names: names, levels: levels}, nil
}

// MustIndex is NewIndex that panics on error; for literals in tests and
// generators where lengths are statically correct.
func MustIndex(levels ...*Series) *Index {
	ix, err := NewIndex(levels...)
	if err != nil {
		panic(err)
	}
	return ix
}

// RangeIndex builds a single-level integer index 0..n-1 named name.
func RangeIndex(name string, n int) *Index {
	data := make([]int64, n)
	for i := range data {
		data[i] = int64(i)
	}
	return MustIndex(NewIntSeries(name, data))
}

// NRows reports the number of rows.
func (ix *Index) NRows() int { return ix.levels[0].Len() }

// NLevels reports the number of index levels.
func (ix *Index) NLevels() int { return len(ix.levels) }

// Names returns the level names (copy).
func (ix *Index) Names() []string { return append([]string(nil), ix.names...) }

// Level returns the i-th level series (shared storage; treat as read-only).
func (ix *Index) Level(i int) *Series { return ix.levels[i] }

// LevelByName returns the level with the given name, or nil.
func (ix *Index) LevelByName(name string) *Series {
	for i, n := range ix.names {
		if n == name {
			return ix.levels[i]
		}
	}
	return nil
}

// KeyAt returns the composite key of the given row.
func (ix *Index) KeyAt(row int) []Value {
	key := make([]Value, len(ix.levels))
	for i, lv := range ix.levels {
		key[i] = lv.At(row)
	}
	return key
}

// buildLookup returns the key→rows structure, building it on first use.
// Racing first uses may each build one; the first to publish wins and
// the others adopt it.
func (ix *Index) buildLookup() *indexLookup {
	if lk := ix.lookup.Load(); lk != nil {
		return lk
	}
	ks := buildKeySpace(ix.levels, true)
	lk := &indexLookup{ks: ks, rows: bucketRows(ks.ids, ks.n)}
	if ix.lookup.CompareAndSwap(nil, lk) {
		return lk
	}
	return ix.lookup.Load()
}

// Lookup returns the row positions matching the full composite key, in
// index order. The returned slice must not be modified.
func (ix *Index) Lookup(key []Value) []int {
	lk := ix.buildLookup()
	id, ok := lk.ks.idOf(key)
	if !ok {
		return nil
	}
	return lk.rows[id]
}

// Contains reports whether the composite key appears in the index.
func (ix *Index) Contains(key []Value) bool { return len(ix.Lookup(key)) > 0 }

// HasDuplicates reports whether any composite key maps to multiple rows.
func (ix *Index) HasDuplicates() bool {
	lk := ix.buildLookup()
	for _, rows := range lk.rows {
		if len(rows) > 1 {
			return true
		}
	}
	return false
}

// UniqueKeys returns the distinct composite keys in first-appearance order.
func (ix *Index) UniqueKeys() [][]Value {
	lk := ix.buildLookup()
	if lk.ks.n == 0 {
		return nil
	}
	out := make([][]Value, lk.ks.n)
	for id, r := range lk.ks.first {
		out[id] = ix.KeyAt(int(r))
	}
	return out
}

// Gather returns a new index containing the given rows in order. An
// identity gather (all rows, in order) carries the built lookup over —
// the rows it maps to are unchanged.
func (ix *Index) Gather(rows []int) *Index {
	levels := make([]*Series, len(ix.levels))
	for i, lv := range ix.levels {
		levels[i] = lv.Gather(rows)
	}
	out := MustIndex(levels...)
	if lk := ix.lookup.Load(); lk != nil && isIdentity(rows, ix.NRows()) {
		out.lookup.Store(lk)
	}
	return out
}

func isIdentity(rows []int, n int) bool {
	if len(rows) != n {
		return false
	}
	for i, r := range rows {
		if r != i {
			return false
		}
	}
	return true
}

// Copy returns a deep copy of the index. A built lookup is shared with
// the copy: it is immutable once built, and mutating either index only
// drops that index's own reference.
func (ix *Index) Copy() *Index {
	levels := make([]*Series, len(ix.levels))
	for i, lv := range ix.levels {
		levels[i] = lv.Copy()
	}
	out := MustIndex(levels...)
	out.lookup.Store(ix.lookup.Load())
	return out
}

// AppendKey adds a new row with the given composite key.
func (ix *Index) AppendKey(key []Value) error {
	if len(key) != len(ix.levels) {
		return fmt.Errorf("dataframe: key has %d parts, index has %d levels", len(key), len(ix.levels))
	}
	for i, lv := range ix.levels {
		if err := lv.Append(key[i]); err != nil {
			return err
		}
	}
	ix.lookup.Store(nil)
	return nil
}

// AppendIndex bulk-appends every row of o; level names and count must
// match.
func (ix *Index) AppendIndex(o *Index) error {
	if o.NLevels() != ix.NLevels() {
		return fmt.Errorf("dataframe: appended index has %d levels, want %d", o.NLevels(), ix.NLevels())
	}
	for i, lv := range ix.levels {
		if err := lv.AppendSeries(o.levels[i]); err != nil {
			return err
		}
	}
	ix.lookup.Store(nil)
	return nil
}

// SortedRows returns row positions ordered by composite key (stable).
func (ix *Index) SortedRows() []int {
	rows := make([]int, ix.NRows())
	for i := range rows {
		rows[i] = i
	}
	keys := make([][]Value, ix.NRows())
	for i := range keys {
		keys[i] = ix.KeyAt(i)
	}
	sort.SliceStable(rows, func(a, b int) bool {
		return CompareKeys(keys[rows[a]], keys[rows[b]]) < 0
	})
	return rows
}

// Equal reports whether two indexes have identical level names and keys.
func (ix *Index) Equal(o *Index) bool {
	if ix.NLevels() != o.NLevels() || ix.NRows() != o.NRows() {
		return false
	}
	for i := range ix.names {
		if ix.names[i] != o.names[i] {
			return false
		}
	}
	for i := range ix.levels {
		if !ix.levels[i].Equal(o.levels[i]) {
			return false
		}
	}
	return true
}

// FormatKey renders a composite key for display, joining levels with ", ".
func FormatKey(key []Value) string {
	parts := make([]string, len(key))
	for i, v := range key {
		parts[i] = v.String()
	}
	return strings.Join(parts, ", ")
}
