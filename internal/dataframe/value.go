// Package dataframe implements a small, dependency-free data-frame library
// with typed columns and hierarchical row and column indexes. It is the
// storage substrate for thicket objects: the performance-data table, the
// metadata table, and the aggregated-statistics table are all Frames.
//
// The design mirrors the subset of pandas that Thicket (HPDC '23) relies
// on: multi-indexed rows keyed by (call-tree node, profile), optional
// multi-level column labels for horizontally composed ensembles, filtering,
// group-by, joins on index keys, order reduction, and table rendering.
package dataframe

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the scalar types a Series can hold.
type Kind uint8

// Supported scalar kinds.
const (
	Float  Kind = iota // float64
	Int                // int64
	String             // string
	Bool               // bool
)

// String returns the lower-case kind name.
func (k Kind) String() string {
	switch k {
	case Float:
		return "float"
	case Int:
		return "int"
	case String:
		return "string"
	case Bool:
		return "bool"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a typed scalar cell: one of float64, int64, string, or bool,
// or a typed null. The zero Value is a null Float.
type Value struct {
	kind Kind
	null bool
	f    float64
	i    int64
	s    string
	b    bool
}

// Float64 returns a float Value.
func Float64(v float64) Value { return Value{kind: Float, f: v} }

// Int64 returns an int Value.
func Int64(v int64) Value { return Value{kind: Int, i: v} }

// Str returns a string Value.
func Str(v string) Value { return Value{kind: String, s: v} }

// BoolVal returns a bool Value.
func BoolVal(v bool) Value { return Value{kind: Bool, b: v} }

// Null returns a null Value of the given kind.
func Null(k Kind) Value { return Value{kind: k, null: true} }

// NaN is the canonical missing float cell.
func NaN() Value { return Value{kind: Float, f: math.NaN(), null: true} }

// Kind reports the value's scalar kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is missing. A float NaN also counts as
// missing, matching pandas semantics.
func (v Value) IsNull() bool {
	if v.null {
		return true
	}
	return v.kind == Float && math.IsNaN(v.f)
}

// Float returns the float64 payload; valid only when Kind()==Float.
func (v Value) Float() float64 { return v.f }

// Int returns the int64 payload; valid only when Kind()==Int.
func (v Value) Int() int64 { return v.i }

// Str returns the string payload; valid only when Kind()==String.
func (v Value) Str() string { return v.s }

// Bool returns the bool payload; valid only when Kind()==Bool.
func (v Value) Bool() bool { return v.b }

// AsFloat coerces the value to float64: ints convert, bools map to 0/1,
// nulls and strings yield NaN with ok=false unless the string parses.
func (v Value) AsFloat() (float64, bool) {
	if v.IsNull() {
		return math.NaN(), false
	}
	switch v.kind {
	case Float:
		return v.f, true
	case Int:
		return float64(v.i), true
	case Bool:
		if v.b {
			return 1, true
		}
		return 0, true
	case String:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.s), 64)
		if err != nil {
			return math.NaN(), false
		}
		return f, true
	}
	return math.NaN(), false
}

// Equal reports deep equality (same kind, same payload, or both null).
// Float comparison is exact; NaN equals NaN (both are null).
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	if v.IsNull() || o.IsNull() {
		return v.IsNull() && o.IsNull()
	}
	switch v.kind {
	case Float:
		return v.f == o.f
	case Int:
		return v.i == o.i
	case String:
		return v.s == o.s
	case Bool:
		return v.b == o.b
	}
	return false
}

// Compare orders two values: nulls sort first, then kind, then payload.
// It returns -1, 0, or +1.
func (v Value) Compare(o Value) int {
	vn, on := v.IsNull(), o.IsNull()
	switch {
	case vn && on:
		return 0
	case vn:
		return -1
	case on:
		return 1
	}
	if v.kind != o.kind {
		// Cross-kind: compare numerically when both coercible, else by kind.
		vf, vok := v.AsFloat()
		of, ook := o.AsFloat()
		if vok && ook {
			return cmpFloat(vf, of)
		}
		return cmpInt(int(v.kind), int(o.kind))
	}
	switch v.kind {
	case Float:
		return cmpFloat(v.f, o.f)
	case Int:
		return cmpInt64(v.i, o.i)
	case String:
		return strings.Compare(v.s, o.s)
	case Bool:
		vb, ob := 0, 0
		if v.b {
			vb = 1
		}
		if o.b {
			ob = 1
		}
		return cmpInt(vb, ob)
	}
	return 0
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpInt(a, b int) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// String renders the value for tables: floats with %g-style compaction,
// nulls as "NaN"/"" depending on kind.
func (v Value) String() string {
	if v.IsNull() {
		if v.kind == Float {
			return "NaN"
		}
		return ""
	}
	switch v.kind {
	case Float:
		return formatFloatCell(v.f)
	case Int:
		return strconv.FormatInt(v.i, 10)
	case String:
		return v.s
	case Bool:
		return strconv.FormatBool(v.b)
	}
	return ""
}

// formatFloatCell renders floats the way the paper's tables do: six
// decimal places for typical magnitudes, falling back to %g extremes.
func formatFloatCell(f float64) string {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		// Whole numbers render without a decimal tail when large, but small
		// measured values keep the tail for visual table alignment.
		if math.Abs(f) >= 1e6 {
			return strconv.FormatFloat(f, 'f', 0, 64)
		}
	}
	af := math.Abs(f)
	if af != 0 && (af < 1e-4 || af >= 1e9) {
		return strconv.FormatFloat(f, 'g', 6, 64)
	}
	return strconv.FormatFloat(f, 'f', 6, 64)
}

// encode appends a canonical, injective encoding of the value, used to
// build composite map keys for index lookups.
func (v Value) encode(sb *strings.Builder) {
	if v.IsNull() {
		sb.WriteByte('n')
		return
	}
	switch v.kind {
	case Float:
		sb.WriteByte('f')
		sb.WriteString(strconv.FormatFloat(v.f, 'b', -1, 64))
	case Int:
		sb.WriteByte('i')
		sb.WriteString(strconv.FormatInt(v.i, 10))
	case String:
		sb.WriteByte('s')
		sb.WriteString(strconv.Itoa(len(v.s)))
		sb.WriteByte(':')
		sb.WriteString(v.s)
	case Bool:
		if v.b {
			sb.WriteString("b1")
		} else {
			sb.WriteString("b0")
		}
	}
}

// EncodeKey produces a canonical string encoding of a composite key, safe
// to use as a map key. Injective across value kinds and lengths. Its
// bytes must never change: they feed profile.Hash, whose values are
// stored as profile indexes and in profile file names, so a new encoding
// would re-key every stored ensemble. Key lookups go through Index
// (Lookup, Locate), which keeps this identity on integer codes.
func EncodeKey(vals []Value) string {
	var sb strings.Builder
	for _, v := range vals {
		v.encode(&sb)
		sb.WriteByte('|')
	}
	return sb.String()
}

// CompareKeys orders two composite keys lexicographically.
func CompareKeys(a, b []Value) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := a[i].Compare(b[i]); c != 0 {
			return c
		}
	}
	return cmpInt(len(a), len(b))
}
