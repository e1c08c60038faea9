package dataframe

import (
	"fmt"
	"strconv"
	"strings"
)

// ColKey identifies a column by its labels across the column-index levels.
// A single-level frame uses one label per column; after horizontal
// composition (paper §3.2.2) columns carry (group, metric) pairs such as
// ("CPU", "time (exc)").
type ColKey []string

// String joins the key parts with "/" for display and lookup messages.
func (k ColKey) String() string { return strings.Join(k, "/") }

// encode is the key's lookup form: each label as "<byte length>:<label>|".
func (k ColKey) encode() string {
	n := 0
	for _, p := range k {
		n += len(p) + 4
	}
	buf := make([]byte, 0, n)
	for _, p := range k {
		buf = strconv.AppendInt(buf, int64(len(p)), 10)
		buf = append(buf, ':')
		buf = append(buf, p...)
		buf = append(buf, '|')
	}
	return string(buf)
}

// Equal reports element-wise equality.
func (k ColKey) Equal(o ColKey) bool {
	if len(k) != len(o) {
		return false
	}
	for i := range k {
		if k[i] != o[i] {
			return false
		}
	}
	return true
}

// Leaf returns the last (innermost) label — the metric name.
func (k ColKey) Leaf() string {
	if len(k) == 0 {
		return ""
	}
	return k[len(k)-1]
}

// Copy returns a fresh ColKey with the same labels.
func (k ColKey) Copy() ColKey { return append(ColKey(nil), k...) }

// ColIndex is a hierarchical column index: every column has one label per
// level. Level 0 is the outermost header row when rendered.
type ColIndex struct {
	nlevels int
	keys    []ColKey
	lookup  map[string]int
}

// NewColIndex builds a column index from keys; all keys must have the same
// number of levels and be distinct.
func NewColIndex(keys []ColKey) (*ColIndex, error) {
	ci := &ColIndex{}
	if len(keys) == 0 {
		ci.nlevels = 1
		ci.lookup = map[string]int{}
		return ci, nil
	}
	ci.nlevels = len(keys[0])
	ci.lookup = make(map[string]int, len(keys))
	for i, k := range keys {
		if len(k) != ci.nlevels {
			return nil, fmt.Errorf("dataframe: column key %v has %d levels, want %d", k, len(k), ci.nlevels)
		}
		enc := k.encode()
		if _, dup := ci.lookup[enc]; dup {
			return nil, fmt.Errorf("dataframe: duplicate column key %v", k)
		}
		ci.lookup[enc] = i
		ci.keys = append(ci.keys, k.Copy())
	}
	return ci, nil
}

// FlatColIndex builds a single-level column index from names.
func FlatColIndex(names []string) *ColIndex {
	keys := make([]ColKey, len(names))
	for i, n := range names {
		keys[i] = ColKey{n}
	}
	ci, err := NewColIndex(keys)
	if err != nil {
		panic(err)
	}
	return ci
}

// NCols reports the number of columns.
func (ci *ColIndex) NCols() int { return len(ci.keys) }

// NLevels reports the number of label levels per column.
func (ci *ColIndex) NLevels() int { return ci.nlevels }

// Key returns the i-th column's key.
func (ci *ColIndex) Key(i int) ColKey { return ci.keys[i] }

// Keys returns all column keys (copies).
func (ci *ColIndex) Keys() []ColKey {
	out := make([]ColKey, len(ci.keys))
	for i, k := range ci.keys {
		out[i] = k.Copy()
	}
	return out
}

// Find returns the position of the exact key, or -1.
func (ci *ColIndex) Find(key ColKey) int {
	if pos, ok := ci.lookup[key.encode()]; ok {
		return pos
	}
	return -1
}

// FindLeaf returns positions of all columns whose innermost label is name.
func (ci *ColIndex) FindLeaf(name string) []int {
	var out []int
	for i, k := range ci.keys {
		if k.Leaf() == name {
			out = append(out, i)
		}
	}
	return out
}

// FindGroup returns positions of all columns whose level-0 label is group.
func (ci *ColIndex) FindGroup(group string) []int {
	var out []int
	for i, k := range ci.keys {
		if len(k) > 0 && k[0] == group {
			out = append(out, i)
		}
	}
	return out
}

// Groups returns the distinct level-0 labels in first-appearance order.
func (ci *ColIndex) Groups() []string {
	seen := make(map[string]struct{})
	var out []string
	for _, k := range ci.keys {
		if len(k) == 0 {
			continue
		}
		if _, ok := seen[k[0]]; ok {
			continue
		}
		seen[k[0]] = struct{}{}
		out = append(out, k[0])
	}
	return out
}

// Append adds a column key, returning its position.
func (ci *ColIndex) Append(key ColKey) (int, error) {
	if ci.NCols() == 0 && ci.nlevels != len(key) {
		ci.nlevels = len(key)
	}
	if len(key) != ci.nlevels {
		return 0, fmt.Errorf("dataframe: column key %v has %d levels, want %d", key, len(key), ci.nlevels)
	}
	enc := key.encode()
	if _, dup := ci.lookup[enc]; dup {
		return 0, fmt.Errorf("dataframe: duplicate column key %v", key)
	}
	ci.lookup[enc] = len(ci.keys)
	ci.keys = append(ci.keys, key.Copy())
	return len(ci.keys) - 1, nil
}

// Select returns a new ColIndex containing the columns at positions.
func (ci *ColIndex) Select(positions []int) *ColIndex {
	keys := make([]ColKey, len(positions))
	for i, p := range positions {
		keys[i] = ci.keys[p].Copy()
	}
	out, err := NewColIndex(keys)
	if err != nil {
		panic(err) // selecting existing distinct keys cannot collide
	}
	if len(positions) == 0 {
		out.nlevels = ci.nlevels
	}
	return out
}

// Copy returns a deep copy.
func (ci *ColIndex) Copy() *ColIndex {
	out, err := NewColIndex(ci.Keys())
	if err != nil {
		panic(err)
	}
	if out.NCols() == 0 {
		out.nlevels = ci.nlevels
	}
	return out
}

// Prefixed returns a copy with an extra outermost level set to group on
// every column — the horizontal-composition primitive of paper §3.2.2.
func (ci *ColIndex) Prefixed(group string) *ColIndex {
	keys := make([]ColKey, len(ci.keys))
	for i, k := range ci.keys {
		nk := make(ColKey, 0, len(k)+1)
		nk = append(nk, group)
		nk = append(nk, k...)
		keys[i] = nk
	}
	out, err := NewColIndex(keys)
	if err != nil {
		panic(err)
	}
	if out.NCols() == 0 {
		out.nlevels = ci.nlevels + 1
	}
	return out
}
