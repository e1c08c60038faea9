package server

import (
	"encoding/json"
	"math"
	"net/http"
	"slices"
	"strconv"

	"repro/internal/dataframe"
)

// renderJSON renders a response payload the way json.MarshalIndent
// with a two-space indent does, plus a trailing newline; every response
// body, cached or not, comes from here. A map[string]any payload is
// written here, keys in byte order, so that a rows value streams from
// its frame's columns; every other value, and any other payload, goes
// through json.MarshalIndent.
func renderJSON(v any) ([]byte, error) {
	m, ok := v.(map[string]any)
	if !ok || m == nil {
		b, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return nil, err
		}
		return append(b, '\n'), nil
	}
	if len(m) == 0 {
		return []byte("{}\n"), nil
	}
	b := []byte{'{'}
	for i, k := range sortedKeys(m) {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n  "...)
		b = appendString(b, k)
		b = append(b, ": "...)
		var err error
		if r, ok := m[k].(rows); ok {
			b, err = r.appendJSON(b, "  ")
		} else {
			var enc []byte
			enc, err = json.MarshalIndent(m[k], "  ", "  ")
			b = append(b, enc...)
		}
		if err != nil {
			return nil, err
		}
	}
	return append(b, "\n}\n"...), nil
}

// sortedKeys returns m's keys in byte order, the order encoding/json
// writes a map's keys in.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// render is renderJSON for a response with status: a payload that does
// not encode answers 500 with the error instead.
func render(status int, v any) (int, []byte) {
	body, err := renderJSON(v)
	if err != nil {
		body, _ = renderJSON(map[string]string{"error": err.Error()})
		return http.StatusInternalServerError, body
	}
	return status, body
}

func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	status, body := render(status, v)
	writeBody(w, status, body)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// errPayload is the (status, payload) form of writeError.
func errPayload(status int, err error) (int, any) {
	return status, map[string]string{"error": err.Error()}
}

// rows is a frame as a JSON array of records: one object per row, with
// index levels under their level names and columns under their
// "/"-joined keys, fields in byte order, and a later column replacing
// an earlier field of the same name. Typed nulls and NaN cells render
// null. renderJSON streams it from the columns; nested anywhere else,
// encoding/json reaches the same appender through MarshalJSON.
type rows struct{ f *dataframe.Frame }

// MarshalJSON renders the rows through the appender renderJSON uses.
func (r rows) MarshalJSON() ([]byte, error) { return r.appendJSON(nil, "") }

// field is one record field of rows: its JSON key, colon included, and
// the series its cells come from.
type field struct {
	key   []byte
	kind  dataframe.Kind
	nulls []bool
	f     []float64
	i     []int64
	b     []bool
	codes []uint32
	words []string
}

// fields lists the frame's record fields in byte order of their names,
// each name taken by its last series among index levels, then columns.
func (r rows) fields() []*field {
	ix := r.f.Index()
	names := ix.Names()
	series := make([]*dataframe.Series, 0, len(names)+r.f.NCols())
	for l := range names {
		series = append(series, ix.Level(l))
	}
	for c := 0; c < r.f.NCols(); c++ {
		names = append(names, r.f.ColIndex().Key(c).String())
		series = append(series, r.f.ColumnAt(c))
	}
	last := make(map[string]*dataframe.Series, len(names))
	for i, name := range names {
		last[name] = series[i]
	}
	names = sortedKeys(last)
	out := make([]*field, len(names))
	for i, name := range names {
		s := last[name]
		fd := &field{key: append(appendString(nil, name), ": "...), kind: s.Kind(), nulls: s.Nulls()}
		switch s.Kind() {
		case dataframe.Float:
			fd.f = s.FloatData()
		case dataframe.Int:
			fd.i = s.IntData()
		case dataframe.Bool:
			fd.b = s.BoolData()
		case dataframe.String:
			dict, codes := s.StringData()
			fd.codes, fd.words = codes, dict.Words()
		}
		out[i] = fd
	}
	return out
}

// appendJSON appends the rows as json.MarshalIndent(records, prefix,
// "  ") writes them: an empty frame as [], otherwise one line per
// bracket and field, each after the first starting with prefix.
func (r rows) appendJSON(b []byte, prefix string) ([]byte, error) {
	n := r.f.NRows()
	if n == 0 {
		return append(b, "[]"...), nil
	}
	fields := r.fields()
	open := "\n" + prefix + "  {"
	sep := "\n" + prefix + "    "
	shut := "\n" + prefix + "  }"
	b = append(b, '[')
	for row := 0; row < n; row++ {
		if row > 0 {
			b = append(b, ',')
		}
		b = append(b, open...)
		for i, fd := range fields {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, sep...)
			b = append(b, fd.key...)
			var err error
			if b, err = fd.appendCell(b, row); err != nil {
				return nil, err
			}
		}
		b = append(b, shut...)
	}
	b = append(b, '\n')
	b = append(b, prefix...)
	return append(b, ']'), nil
}

// appendCell appends one cell as encoding/json writes the value
// valueJSON gives it: null for a null or NaN cell, an error for ±Inf.
func (fd *field) appendCell(b []byte, row int) ([]byte, error) {
	if fd.nulls[row] {
		return append(b, "null"...), nil
	}
	switch fd.kind {
	case dataframe.Float:
		x := fd.f[row]
		if math.IsNaN(x) {
			return append(b, "null"...), nil
		}
		if math.IsInf(x, 0) {
			_, err := json.Marshal(x) // encoding/json's unsupported-value error
			return nil, err
		}
		return appendFloat(b, x), nil
	case dataframe.Int:
		return strconv.AppendInt(b, fd.i[row], 10), nil
	case dataframe.Bool:
		return strconv.AppendBool(b, fd.b[row]), nil
	case dataframe.String:
		return appendString(b, fd.words[fd.codes[row]]), nil
	}
	return append(b, "null"...), nil
}

// appendFloat appends a finite float64 as encoding/json writes it: the
// shortest 'f' form, or the 'e' form below 1e-6 and from 1e21 in
// magnitude, with a one-digit negative exponent unpadded.
func appendFloat(b []byte, x float64) []byte {
	format := byte('f')
	if abs := math.Abs(x); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, x, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendString appends s as a JSON string the way encoding/json writes
// it. Printable ASCII other than " \ < > & is written as it is; any
// other string goes through json.Marshal, so HTML escaping, U+2028 and
// U+2029, and invalid UTF-8 come out as encoding/json writes them.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			enc, _ := json.Marshal(s) // a string always marshals
			return append(b, enc...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
