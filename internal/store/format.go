// Package store implements an append-only, versioned, binary columnar
// store for thicket objects — the persistence tier behind the thicketd
// query service.
//
// A store file is a fixed magic followed by one or more *segments*.
// Each segment is fully self-describing: a small header carrying the
// per-column offset index (frame layouts, column keys and kinds, block
// offsets and lengths, the call-tree paths, and the profile level) is
// followed by the raw column blocks. Opening a store reads only the
// headers — O(header), independent of data volume — and loading a
// projection (say, one metric column out of forty) reads and decodes
// only the referenced blocks. Appending writes a new segment at the end
// of the file; existing blocks are never rewritten.
//
// Every column block is independently decodable and CRC-protected, so a
// corrupted file fails loudly at the offending block instead of
// producing silent garbage. Block decoding fans out through the
// internal/parallel engine: blocks are independent units written to
// fixed output slots, so decoded results are bit-identical at any
// worker count (the engine's determinism contract).
//
// On-disk layout (all integers little-endian):
//
//	file    := fileMagic(8) segment*
//	segment := segMagic(4) headerLen(u32) headerCRC(u32) dataLen(u64) headerJSON data
//	block   := kind(u8) nrows(uvarint) nullBitmap(ceil(n/8)) payload crc(u32)
//
// Payloads are kind-specialized: float64 bit patterns and int64 values
// as fixed 8-byte words, strings as uvarint-length-prefixed bytes, and
// bools as a bitmap. Null cells write zero payloads and decode back to
// typed nulls, matching the JSON codec's null semantics exactly — the
// property test in this package asserts a store round-trip equals a
// WriteJSON/ReadThicket round-trip bit for bit.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/dataframe"
)

// File-level format constants.
const (
	// FileMagic opens every store file (shared by format versions 1
	// and 2; the segment header carries the version).
	FileMagic = "THKSTOR1"
	// segMagic opens every segment.
	segMagic = "TSEG"
	// FormatVersion is the store format version new segments are
	// written with. Version 2 replaced plain string blocks with
	// dictionary pages (kindStringDict). Version 3 adds delta-encoded
	// int blocks (kindIntDelta) for monotonic columns, run-length
	// dictionary pages (kindDictRLE) for low-cardinality strings, and
	// per-column null counts in the header — the zone-map side
	// information predicate pushdown needs to skip blocks soundly.
	FormatVersion = 3
	// minReadVersion is the oldest segment version the read path
	// accepts. Version 1 files (plain string blocks) still load.
	minReadVersion = 1
)

// kind codes used in block encodings. They intentionally mirror
// dataframe.Kind values but are pinned independently so the on-disk
// format cannot drift if the in-memory enum is ever reordered.
// kindString is the v1 plain encoding (uvarint-length-prefixed bytes
// per row); v2 writes string columns as kindStringDict dictionary
// pages (unique-words block + per-row uvarint codes). Both decode.
// kindIntDelta (v3) stores a no-null int column as a zigzag-varint
// first value followed by plain-uvarint non-negative deltas — chosen
// only when the column is non-decreasing, which node-major compacted
// index levels and ordinal profile ids usually are. kindDictRLE (v3)
// keeps the v2 dictionary page but stores the per-row codes as
// (code, runLength) pairs — chosen when the column has long runs of
// repeated values (sorted or low-cardinality metadata).
const (
	kindFloat      = 0
	kindInt        = 1
	kindString     = 2
	kindBool       = 3
	kindStringDict = 4
	kindIntDelta   = 5
	kindDictRLE    = 6
)

func kindCode(k dataframe.Kind) (byte, error) {
	switch k {
	case dataframe.Float:
		return kindFloat, nil
	case dataframe.Int:
		return kindInt, nil
	case dataframe.String:
		return kindStringDict, nil
	case dataframe.Bool:
		return kindBool, nil
	}
	return 0, fmt.Errorf("store: unsupported column kind %v", k)
}

func codeKind(c byte) (dataframe.Kind, error) {
	switch c {
	case kindFloat:
		return dataframe.Float, nil
	case kindInt, kindIntDelta:
		return dataframe.Int, nil
	case kindString, kindStringDict, kindDictRLE:
		return dataframe.String, nil
	case kindBool:
		return dataframe.Bool, nil
	}
	return 0, fmt.Errorf("store: unknown kind code %d", c)
}

// columnMeta locates one encoded column block inside a segment's data
// area. Key holds the hierarchical column key (one label for index
// levels and flat frames, more after horizontal composition).
type columnMeta struct {
	Key    []string `json:"key"`
	Kind   string   `json:"kind"`
	Offset uint64   `json:"offset"`
	Length uint64   `json:"length"`
	// Min/Max cover the block's non-null values for numeric columns
	// (int values widened to float64) — the zone-map seed for predicate
	// pushdown. Absent for string/bool blocks, all-null blocks, columns
	// containing NaN payloads (a NaN orders against nothing, so the map
	// must stay open), and segments written before format v2 grew these
	// fields; readers must treat absence as "no statistics", never
	// "empty block".
	Min *float64 `json:"min,omitempty"`
	Max *float64 `json:"max,omitempty"`
	// Nulls counts the block's null rows (format v3+). The query
	// planner needs it to skip soundly: a null cell compares as a
	// rendered string, outside what Min/Max cover, so a block may be
	// skipped on its zone map alone only when it provably has no nulls.
	// nil in pre-v3 segments means "unknown", never "zero".
	Nulls *int `json:"nulls,omitempty"`
}

// frameMeta describes one serialized frame: its row count, the blocks
// holding its index levels, and the blocks holding its data columns.
type frameMeta struct {
	Name   string       `json:"name"`
	NRows  int          `json:"nrows"`
	Levels []columnMeta `json:"levels"`
	Cols   []columnMeta `json:"cols"`
}

// Frame names used in segment headers.
const (
	framePerf  = "perf"
	frameMeta_ = "meta"
	frameStats = "stats"
)

// segmentHeader is the JSON-encoded per-segment index: everything
// needed to locate and type every block without touching the data area.
type segmentHeader struct {
	Version      int         `json:"version"`
	ProfileLevel string      `json:"profile_level"`
	NProfiles    int         `json:"nprofiles"`
	TreePaths    [][]string  `json:"tree_paths"`
	Frames       []frameMeta `json:"frames"`
}

func (h *segmentHeader) frame(name string) *frameMeta {
	for i := range h.Frames {
		if h.Frames[i].Name == name {
			return &h.Frames[i]
		}
	}
	return nil
}

var crcTable = crc32.IEEETable

// appendUvarint appends v as an unsigned varint.
func appendUvarint(buf []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(buf, tmp[:n]...)
}

// sealBlock appends the block CRC and returns the finished record.
func sealBlock(buf []byte) []byte {
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(buf, crcTable))
	return append(buf, crc[:]...)
}

// zigzag folds a signed value into an unsigned one with small absolute
// values staying small — the standard varint-friendly encoding.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// encodeBlock serializes one series as a self-describing, CRC-protected
// column block. Null cells contribute zero payloads; their true values
// are the null bitmap's business.
//
// String columns write dictionary pages: the block-local unique words in
// first-appearance order, then the per-row codes — one uvarint per row
// (kindStringDict), or (code, runLength) pairs (kindDictRLE) when the
// column runs long enough that run-length coding wins. Int columns that
// are null-free and non-decreasing write kindIntDelta: a zigzag-varint
// first value then plain-uvarint deltas. Both choices are deterministic
// functions of the data, so identical thickets still encode to identical
// bytes (the compaction bit-identity contract).
func encodeBlock(s *dataframe.Series) ([]byte, error) {
	kc, err := kindCode(s.Kind())
	if err != nil {
		return nil, err
	}
	n := s.Len()
	buf := make([]byte, 0, 16+n)

	if s.Kind() == dataframe.String {
		dict, codes := s.StringData()
		nullMask := s.Nulls()
		nulls := make([]byte, (n+7)/8)
		for i := 0; i < n; i++ {
			if nullMask[i] {
				nulls[i/8] |= 1 << (i % 8)
			}
		}

		// Remap shared-dict codes to block-local codes in
		// first-appearance order; collect the used words. Null rows
		// keep local code 0.
		const unset = ^uint32(0)
		remap := make([]uint32, dict.Len())
		for i := range remap {
			remap[i] = unset
		}
		var words []string
		local := make([]uint32, n)
		for i := 0; i < n; i++ {
			if nullMask[i] {
				continue
			}
			c := codes[i]
			lc := remap[c]
			if lc == unset {
				lc = uint32(len(words))
				words = append(words, dict.Word(c))
				remap[c] = lc
			}
			local[i] = lc
		}

		// Count runs over the local codes (nulls ride along as code 0).
		// A run costs two varints against one per row, so RLE wins when
		// the average run length clears 2.
		runs := 0
		for i := 0; i < n; i++ {
			if i == 0 || local[i] != local[i-1] {
				runs++
			}
		}
		useRLE := n >= 2 && 2*runs <= n

		if useRLE {
			buf = append(buf, kindDictRLE)
		} else {
			buf = append(buf, kindStringDict)
		}
		buf = appendUvarint(buf, uint64(n))
		buf = append(buf, nulls...)
		buf = appendUvarint(buf, uint64(len(words)))
		for _, w := range words {
			buf = appendUvarint(buf, uint64(len(w)))
			buf = append(buf, w...)
		}
		if useRLE {
			for i := 0; i < n; {
				j := i + 1
				for j < n && local[j] == local[i] {
					j++
				}
				buf = appendUvarint(buf, uint64(local[i]))
				buf = appendUvarint(buf, uint64(j-i))
				i = j
			}
		} else {
			for i := 0; i < n; i++ {
				buf = appendUvarint(buf, uint64(local[i]))
			}
		}
		return sealBlock(buf), nil
	}

	nulls := make([]byte, (n+7)/8)
	vals := make([]dataframe.Value, n)
	nullCount := 0
	for i := 0; i < n; i++ {
		vals[i] = s.At(i)
		if vals[i].IsNull() {
			nulls[i/8] |= 1 << (i % 8)
			nullCount++
		}
	}

	if s.Kind() == dataframe.Int && nullCount == 0 && n >= 2 {
		mono := true
		raw := s.IntData()
		for i := 1; i < n; i++ {
			if raw[i] < raw[i-1] {
				mono = false
				break
			}
		}
		if mono {
			buf = append(buf, kindIntDelta)
			buf = appendUvarint(buf, uint64(n))
			buf = append(buf, nulls...)
			buf = appendUvarint(buf, zigzag(raw[0]))
			for i := 1; i < n; i++ {
				// Non-decreasing, so the difference is exact in uint64
				// arithmetic even when it crosses the int64 midpoint.
				buf = appendUvarint(buf, uint64(raw[i])-uint64(raw[i-1]))
			}
			return sealBlock(buf), nil
		}
	}

	buf = append(buf, kc)
	buf = appendUvarint(buf, uint64(n))
	buf = append(buf, nulls...)

	switch s.Kind() {
	case dataframe.Float:
		var w [8]byte
		for i := 0; i < n; i++ {
			var bits uint64
			if !vals[i].IsNull() {
				bits = math.Float64bits(vals[i].Float())
			}
			binary.LittleEndian.PutUint64(w[:], bits)
			buf = append(buf, w[:]...)
		}
	case dataframe.Int:
		var w [8]byte
		for i := 0; i < n; i++ {
			var iv int64
			if !vals[i].IsNull() {
				iv = vals[i].Int()
			}
			binary.LittleEndian.PutUint64(w[:], uint64(iv))
			buf = append(buf, w[:]...)
		}
	case dataframe.Bool:
		bits := make([]byte, (n+7)/8)
		for i := 0; i < n; i++ {
			if !vals[i].IsNull() && vals[i].Bool() {
				bits[i/8] |= 1 << (i % 8)
			}
		}
		buf = append(buf, bits...)
	}

	return sealBlock(buf), nil
}

// decodeBlock parses a column block produced by encodeBlock into a
// series named name. wantKind and wantRows cross-check the block's
// self-description against the segment header; pass wantRows < 0 to
// skip the row-count check (the fuzzer does). Corruption anywhere —
// truncated payload, bad CRC, kind mismatch, absurd lengths — is an
// error, never a panic.
func decodeBlock(data []byte, name string, wantKind dataframe.Kind, wantRows int) (*dataframe.Series, error) {
	if len(data) < 4+2 {
		return nil, fmt.Errorf("store: block %q: too short (%d bytes)", name, len(data))
	}
	body, crcBytes := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.Checksum(body, crcTable), binary.LittleEndian.Uint32(crcBytes); got != want {
		return nil, fmt.Errorf("store: block %q: CRC mismatch (file %08x, computed %08x)", name, want, got)
	}
	kc := body[0]
	kind, err := codeKind(kc)
	if err != nil {
		return nil, fmt.Errorf("store: block %q: %w", name, err)
	}
	if kind != wantKind {
		return nil, fmt.Errorf("store: block %q: kind %s, header says %s", name, kind, wantKind)
	}
	rest := body[1:]
	un, sz := binary.Uvarint(rest)
	if sz <= 0 {
		return nil, fmt.Errorf("store: block %q: bad row count varint", name)
	}
	if un > uint64(len(data))*8 {
		// A block cannot describe more rows than it has bits; reject
		// before allocating.
		return nil, fmt.Errorf("store: block %q: implausible row count %d for %d-byte block", name, un, len(data))
	}
	n := int(un)
	if wantRows >= 0 && n != wantRows {
		return nil, fmt.Errorf("store: block %q: %d rows, header says %d", name, n, wantRows)
	}
	rest = rest[sz:]
	nullLen := (n + 7) / 8
	if len(rest) < nullLen {
		return nil, fmt.Errorf("store: block %q: truncated null bitmap", name)
	}
	nulls, payload := rest[:nullLen], rest[nullLen:]
	isNull := func(i int) bool { return nulls[i/8]&(1<<(i%8)) != 0 }

	if kc == kindStringDict || kc == kindDictRLE {
		return decodeStringDict(payload, name, n, isNull, kc == kindDictRLE)
	}
	if kc == kindIntDelta {
		for i := 0; i < n; i++ {
			if isNull(i) {
				return nil, fmt.Errorf("store: block %q: delta block claims null rows", name)
			}
		}
		return decodeIntDelta(payload, name, n)
	}

	out := dataframe.NewSeries(name, kind)
	appendVal := func(i int, v dataframe.Value) error {
		if isNull(i) {
			return out.Append(dataframe.Null(kind))
		}
		return out.Append(v)
	}
	switch kind {
	case dataframe.Float:
		if len(payload) != 8*n {
			return nil, fmt.Errorf("store: block %q: float payload %d bytes, want %d", name, len(payload), 8*n)
		}
		for i := 0; i < n; i++ {
			bits := binary.LittleEndian.Uint64(payload[8*i:])
			if err := appendVal(i, dataframe.Float64(math.Float64frombits(bits))); err != nil {
				return nil, err
			}
		}
	case dataframe.Int:
		if len(payload) != 8*n {
			return nil, fmt.Errorf("store: block %q: int payload %d bytes, want %d", name, len(payload), 8*n)
		}
		for i := 0; i < n; i++ {
			iv := int64(binary.LittleEndian.Uint64(payload[8*i:]))
			if err := appendVal(i, dataframe.Int64(iv)); err != nil {
				return nil, err
			}
		}
	case dataframe.String:
		for i := 0; i < n; i++ {
			ln, sz := binary.Uvarint(payload)
			if sz <= 0 || ln > uint64(len(payload)) {
				return nil, fmt.Errorf("store: block %q: bad string length at row %d", name, i)
			}
			payload = payload[sz:]
			if uint64(len(payload)) < ln {
				return nil, fmt.Errorf("store: block %q: truncated string at row %d", name, i)
			}
			if err := appendVal(i, dataframe.Str(string(payload[:ln]))); err != nil {
				return nil, err
			}
			payload = payload[ln:]
		}
		if len(payload) != 0 {
			return nil, fmt.Errorf("store: block %q: %d trailing payload bytes", name, len(payload))
		}
	case dataframe.Bool:
		if len(payload) != nullLen {
			return nil, fmt.Errorf("store: block %q: bool payload %d bytes, want %d", name, len(payload), nullLen)
		}
		for i := 0; i < n; i++ {
			b := payload[i/8]&(1<<(i%8)) != 0
			if err := appendVal(i, dataframe.BoolVal(b)); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// decodeIntDelta parses a v3 delta payload: zigzag-varint first value,
// then n-1 plain-uvarint deltas added with wraparound (the encoder's
// uint64 subtraction is exact for non-decreasing data, so the sum
// reconstructs the original even across the int64 midpoint).
func decodeIntDelta(payload []byte, name string, n int) (*dataframe.Series, error) {
	vals := make([]int64, 0, n)
	if n > 0 {
		first, sz := binary.Uvarint(payload)
		if sz <= 0 {
			return nil, fmt.Errorf("store: block %q: bad delta base value", name)
		}
		payload = payload[sz:]
		vals = append(vals, unzigzag(first))
		for i := 1; i < n; i++ {
			d, sz := binary.Uvarint(payload)
			if sz <= 0 {
				return nil, fmt.Errorf("store: block %q: bad delta at row %d", name, i)
			}
			payload = payload[sz:]
			vals = append(vals, vals[i-1]+int64(d))
		}
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("store: block %q: %d trailing payload bytes", name, len(payload))
	}
	return dataframe.NewIntSeries(name, vals), nil
}

// decodeStringDict parses a dictionary page payload: unique words in
// code order, then the per-row codes — one uvarint per row (v2
// kindStringDict) or (code, runLength) pairs covering exactly n rows
// (v3 kindDictRLE). The decoded series adopts the page dictionary and
// codes directly — no per-row re-interning.
func decodeStringDict(payload []byte, name string, n int, isNull func(int) bool, rle bool) (*dataframe.Series, error) {
	nw, sz := binary.Uvarint(payload)
	if sz <= 0 || nw > uint64(len(payload)) {
		return nil, fmt.Errorf("store: block %q: bad dictionary word count", name)
	}
	payload = payload[sz:]
	dict := dataframe.NewDict()
	for w := uint64(0); w < nw; w++ {
		ln, sz := binary.Uvarint(payload)
		if sz <= 0 || ln > uint64(len(payload)) {
			return nil, fmt.Errorf("store: block %q: bad dictionary word length at word %d", name, w)
		}
		payload = payload[sz:]
		if uint64(len(payload)) < ln {
			return nil, fmt.Errorf("store: block %q: truncated dictionary word %d", name, w)
		}
		if c := dict.Intern(string(payload[:ln])); uint64(c) != w {
			return nil, fmt.Errorf("store: block %q: duplicate dictionary word %q", name, payload[:ln])
		}
		payload = payload[ln:]
	}
	codes := make([]uint32, n)
	nulls := make([]bool, n)
	if rle {
		filled := 0
		for filled < n {
			c, sz := binary.Uvarint(payload)
			if sz <= 0 {
				return nil, fmt.Errorf("store: block %q: bad run code at row %d", name, filled)
			}
			payload = payload[sz:]
			rl, sz := binary.Uvarint(payload)
			if sz <= 0 {
				return nil, fmt.Errorf("store: block %q: bad run length at row %d", name, filled)
			}
			payload = payload[sz:]
			if rl == 0 || rl > uint64(n-filled) {
				return nil, fmt.Errorf("store: block %q: run of %d rows at row %d overruns %d-row block", name, rl, filled, n)
			}
			for j := 0; j < int(rl); j++ {
				codes[filled+j] = uint32(c)
			}
			filled += int(rl)
		}
		for i := 0; i < n; i++ {
			if isNull(i) {
				nulls[i] = true
				codes[i] = 0
				continue
			}
			if uint64(codes[i]) >= nw {
				return nil, fmt.Errorf("store: block %q: code %d out of range at row %d (dictionary has %d words)", name, codes[i], i, nw)
			}
		}
	} else {
		for i := 0; i < n; i++ {
			c, sz := binary.Uvarint(payload)
			if sz <= 0 {
				return nil, fmt.Errorf("store: block %q: bad code at row %d", name, i)
			}
			payload = payload[sz:]
			if isNull(i) {
				nulls[i] = true
				continue
			}
			if c >= nw {
				return nil, fmt.Errorf("store: block %q: code %d out of range at row %d (dictionary has %d words)", name, c, i, nw)
			}
			codes[i] = uint32(c)
		}
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("store: block %q: %d trailing payload bytes", name, len(payload))
	}
	return dataframe.NewStringSeriesFromCodes(name, dict, codes, nulls)
}

// numericRange computes the min/max over a numeric series' non-null
// values. A column carrying any NaN payload gets an OPEN zone map
// (nil, nil): a NaN carries no ordering information and would poison
// every comparison against the map, so the only sound statistic for
// such a column is no statistic — a planner must scan, never skip.
// (Store-decoded nulls carry zero payloads and don't trip this; the
// null bitmap plus the header's null count covers them.) A non-null ±Inf
// opens the map too: the JSON header cannot hold an infinite bound.
// Non-numeric or value-free series also get (nil, nil).
func numericRange(s *dataframe.Series) (minp, maxp *float64) {
	if s.Kind() != dataframe.Float && s.Kind() != dataframe.Int {
		return nil, nil
	}
	if raw := s.FloatData(); raw != nil {
		for _, f := range raw {
			if math.IsNaN(f) {
				return nil, nil
			}
		}
	}
	nulls := s.Nulls()
	var lo, hi float64
	seen := false
	if s.Kind() == dataframe.Int {
		for i, v := range s.IntData() {
			if nulls[i] {
				continue
			}
			f := float64(v)
			if !seen {
				lo, hi, seen = f, f, true
				continue
			}
			if f < lo {
				lo = f
			}
			if f > hi {
				hi = f
			}
		}
	} else {
		for i, f := range s.FloatData() {
			if nulls[i] {
				continue
			}
			if math.IsInf(f, 0) {
				return nil, nil
			}
			if !seen {
				lo, hi, seen = f, f, true
				continue
			}
			if f < lo {
				lo = f
			}
			if f > hi {
				hi = f
			}
		}
	}
	if !seen {
		return nil, nil
	}
	return &lo, &hi
}

// nullCount counts the series' null cells under Value semantics (mask
// nulls plus float NaN payloads).
func nullCount(s *dataframe.Series) int {
	n := 0
	for _, isNull := range s.Nulls() {
		if isNull {
			n++
		}
	}
	if raw := s.FloatData(); raw != nil {
		nulls := s.Nulls()
		for i, f := range raw {
			if !nulls[i] && math.IsNaN(f) {
				n++
			}
		}
	}
	return n
}

// encodeFrame appends every index-level and data-column block of f to
// data, returning the grown buffer and the frame's offset index. Offsets
// are relative to the segment data area.
func encodeFrame(name string, f *dataframe.Frame, data []byte) ([]byte, frameMeta, error) {
	fm := frameMeta{Name: name, NRows: f.NRows()}
	put := func(key []string, s *dataframe.Series) (columnMeta, error) {
		blk, err := encodeBlock(s)
		if err != nil {
			return columnMeta{}, err
		}
		cm := columnMeta{
			Key:    key,
			Kind:   s.Kind().String(),
			Offset: uint64(len(data)),
			Length: uint64(len(blk)),
		}
		cm.Min, cm.Max = numericRange(s)
		nulls := nullCount(s)
		cm.Nulls = &nulls
		data = append(data, blk...)
		return cm, nil
	}
	ix := f.Index()
	for l := 0; l < ix.NLevels(); l++ {
		cm, err := put([]string{ix.Names()[l]}, ix.Level(l))
		if err != nil {
			return nil, fm, fmt.Errorf("store: frame %s index level %d: %w", name, l, err)
		}
		fm.Levels = append(fm.Levels, cm)
	}
	for c := 0; c < f.NCols(); c++ {
		cm, err := put(f.ColIndex().Key(c), f.ColumnAt(c))
		if err != nil {
			return nil, fm, fmt.Errorf("store: frame %s column %v: %w", name, f.ColIndex().Key(c), err)
		}
		fm.Cols = append(fm.Cols, cm)
	}
	return data, fm, nil
}
