package profile

import (
	"sort"

	"repro/internal/dataframe"
)

// scanProfile decodes data in one pass when it has the shape WriteJSON
// emits, straight into a profile:
//
//   - one object with the members format, version, metadata,
//     metadata_order and nodes, each at most once, in any order, and
//     nothing after it but whitespace;
//   - path and metrics inside a node, each at most once;
//   - strings of printable ASCII, with no escapes but the writer's own;
//   - scalar metadata and metric values;
//   - version as the literal 1.
//
// For anything else it reports false, and FromBytes hands the bytes to
// readJSON, the general decoder, which decides: every parse, format,
// version and Validate failure included. readJSON keeps encoding/json's
// quirks (case-insensitive member names, bytes after the object ignored,
// a repeated nodes member decoded into the first one's elements, a null
// path element read as ""), so the scanner takes none of those inputs.
// It has no errors of its own, and what it accepts it decodes as readJSON
// does (FuzzFromBytes).
func scanProfile(data []byte) (*Profile, bool) {
	s := scanner{data: data, strs: make(map[string]string, 64)}
	p := New()
	var (
		seen  uint8
		meta  map[string]dataframe.Value
		order []string
	)
	s.ws()
	more, ok := s.open('{', '}')
	for ok && more {
		var name, v []byte
		var bit uint8
		if name, ok = s.member(); !ok {
			break
		}
		switch string(name) {
		case "format":
			bit = 1
			v, ok = s.str()
			ok = ok && string(v) == FormatName
		case "version":
			bit = 2
			v, ok = s.number()
			ok = ok && string(v) == "1"
		case "metadata":
			bit = 4
			meta, ok = s.scalars(16)
		case "metadata_order":
			bit = 8
			order, ok = s.strings(nil)
		case "nodes":
			bit = 16
			ok = s.nodes(p)
		}
		if ok = ok && bit != 0 && seen&bit == 0; ok {
			seen |= bit
			more, ok = s.next('}')
		}
	}
	s.ws()
	if !ok || s.pos != len(s.data) || seen&3 != 3 {
		return nil, false
	}
	keys := order
	if len(keys) == 0 {
		for k := range meta {
			keys = append(keys, k)
		}
		sort.Strings(keys)
	}
	for _, k := range keys {
		v, ok := meta[k]
		if !ok {
			return nil, false
		}
		p.SetMeta(k, v)
	}
	if p.tree.Len() == 0 {
		return nil, false
	}
	return p, true
}

// scanner is scanProfile's cursor over the input. Every method reports
// false on anything outside the writer's shape.
type scanner struct {
	data []byte
	pos  int
	strs map[string]string // the strings decoded so far, interned
	buf  []byte            // decoded bytes of the last escaped string
	path []string          // a node's path, reused across nodes
}

// ws skips JSON whitespace.
func (s *scanner) ws() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// eat consumes c if it is the next byte.
func (s *scanner) eat(c byte) bool {
	if s.pos < len(s.data) && s.data[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// open consumes a container's opening byte and the whitespace after it.
// more reports that an element follows, not the closing byte.
func (s *scanner) open(opening, closing byte) (more, ok bool) {
	if !s.eat(opening) {
		return false, false
	}
	s.ws()
	return !s.eat(closing), true
}

// next consumes what follows a container element: a ',' and whitespace
// (more is true), or the closing byte.
func (s *scanner) next(closing byte) (more, ok bool) {
	s.ws()
	if s.eat(',') {
		s.ws()
		return true, true
	}
	return false, s.eat(closing)
}

// member consumes an object member's name and the ':' after it, with the
// whitespace around it.
func (s *scanner) member() ([]byte, bool) {
	name, ok := s.str()
	s.ws()
	ok = ok && s.eat(':')
	s.ws()
	return name, ok
}

// str consumes a string of printable ASCII and returns its bytes. The
// only escapes it takes are those the writer emits for printable ASCII:
// \" and \\, and encoding/json's HTML escapes \u003c, \u003e and \u0026.
// The bytes alias the input, or for a string with escapes the scanner's
// buffer, which the next str call reuses.
func (s *scanner) str() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	start := s.pos
	buf := s.buf[:0]
	escaped := false
	for s.pos < len(s.data) {
		c := s.data[s.pos]
		switch {
		case c == '"':
			s.pos++
			if !escaped {
				return s.data[start : s.pos-1], true
			}
			s.buf = buf
			return buf, true
		case c == '\\':
			if !escaped {
				buf, escaped = append(buf, s.data[start:s.pos]...), true
			}
			e, n := unescape(s.data[s.pos:])
			if n == 0 {
				return nil, false
			}
			buf = append(buf, e)
			s.pos += n
		case c < 0x20 || c > 0x7e:
			return nil, false
		default:
			if escaped {
				buf = append(buf, c)
			}
			s.pos++
		}
	}
	return nil, false
}

// unescape decodes the escape at the start of b if it is one the writer
// emits, returning the byte and the escape's length (0 for any other).
func unescape(b []byte) (byte, int) {
	for _, e := range [...]struct {
		esc string
		c   byte
	}{{`\"`, '"'}, {`\\`, '\\'}, {`\u003c`, '<'}, {`\u003e`, '>'}, {`\u0026`, '&'}} {
		if len(b) >= len(e.esc) && string(b[:len(e.esc)]) == e.esc {
			return e.c, len(e.esc)
		}
	}
	return 0, 0
}

// intern returns b as a string, one allocation per distinct string.
func (s *scanner) intern(b []byte) string {
	if v, ok := s.strs[string(b)]; ok {
		return v
	}
	v := string(b)
	s.strs[v] = v
	return v
}

// number consumes a JSON number literal (RFC 8259's grammar) and returns
// its bytes.
func (s *scanner) number() ([]byte, bool) {
	start := s.pos
	s.eat('-')
	if !s.eat('0') && s.digits() == 0 {
		return nil, false
	}
	if s.eat('.') && s.digits() == 0 {
		return nil, false
	}
	if s.eat('e') || s.eat('E') {
		if !s.eat('+') {
			s.eat('-')
		}
		if s.digits() == 0 {
			return nil, false
		}
	}
	return s.data[start:s.pos], true
}

// digits consumes a run of decimal digits and returns its length.
func (s *scanner) digits() int {
	start := s.pos
	for s.pos < len(s.data) && '0' <= s.data[s.pos] && s.data[s.pos] <= '9' {
		s.pos++
	}
	return s.pos - start
}

// literal consumes the keyword lit.
func (s *scanner) literal(lit string) bool {
	if len(s.data)-s.pos < len(lit) || string(s.data[s.pos:s.pos+len(lit)]) != lit {
		return false
	}
	s.pos += len(lit)
	return true
}

// value consumes a scalar and types it by decodeValue's rules.
func (s *scanner) value() (dataframe.Value, bool) {
	if s.pos == len(s.data) {
		return dataframe.Value{}, false
	}
	switch c := s.data[s.pos]; {
	case c == '"':
		b, ok := s.str()
		return dataframe.Str(s.intern(b)), ok
	case c == 't':
		return dataframe.BoolVal(true), s.literal("true")
	case c == 'f':
		return dataframe.BoolVal(false), s.literal("false")
	case c == 'n':
		return dataframe.Null(dataframe.Float), s.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		if b, ok := s.number(); ok {
			return numberValue(string(b))
		}
	}
	return dataframe.Value{}, false
}

// scalars consumes an object of scalar members into a new map sized for
// hint members. A repeated member overwrites, as in encoding/json.
func (s *scanner) scalars(hint int) (map[string]dataframe.Value, bool) {
	more, ok := s.open('{', '}')
	if !ok {
		return nil, false
	}
	m := make(map[string]dataframe.Value, hint)
	for ok && more {
		var name []byte
		var v dataframe.Value
		if name, ok = s.member(); ok {
			key := s.intern(name)
			if v, ok = s.value(); ok {
				m[key] = v
				more, ok = s.next('}')
			}
		}
	}
	return m, ok
}

// strings consumes null or an array of strings, appending to dst.
func (s *scanner) strings(dst []string) ([]string, bool) {
	if s.literal("null") {
		return dst, true
	}
	more, ok := s.open('[', ']')
	for ok && more {
		var b []byte
		if b, ok = s.str(); ok {
			dst = append(dst, s.intern(b))
			more, ok = s.next(']')
		}
	}
	return dst, ok
}

// nodes consumes the nodes array, adding each node to p in order.
func (s *scanner) nodes(p *Profile) bool {
	more, ok := s.open('[', ']')
	for ok && more {
		if ok = s.node(p); ok {
			more, ok = s.next(']')
		}
	}
	return ok
}

// node consumes one node object and adds it to p as readJSON does: its
// metrics map becomes the node's row.
func (s *scanner) node(p *Profile) bool {
	var (
		seen    uint8
		path    = s.path[:0]
		metrics map[string]dataframe.Value
	)
	more, ok := s.open('{', '}')
	for ok && more {
		var name []byte
		var bit uint8
		if name, ok = s.member(); !ok {
			break
		}
		switch string(name) {
		case "path":
			bit = 1
			path, ok = s.strings(path)
		case "metrics":
			bit = 2
			metrics, ok = s.scalars(0)
		}
		if ok = ok && bit != 0 && seen&bit == 0; ok {
			seen |= bit
			more, ok = s.next('}')
		}
	}
	s.path = path
	if !ok || len(path) == 0 {
		return false
	}
	return p.adoptSample(path, metrics) == nil
}
