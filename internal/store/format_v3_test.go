package store

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/dataframe"
)

// TestNumericRangeNaNOpen pins the zone-map soundness rule: any NaN
// payload anywhere in a float column's packed storage — masked or not —
// forces the open (nil, nil) map, because a NaN that leaks into min/max
// would poison every comparison the planner makes against it.
func TestNumericRangeNaNOpen(t *testing.T) {
	nan := dataframe.NewFloatSeries("f", []float64{1, math.NaN(), 3})
	if lo, hi := numericRange(nan); lo != nil || hi != nil {
		t.Fatalf("NaN payload should yield open map, got %v %v", lo, hi)
	}

	// An infinite bound cannot be written into the JSON header.
	for _, inf := range []float64{math.Inf(1), math.Inf(-1)} {
		if lo, hi := numericRange(dataframe.NewFloatSeries("f", []float64{1, inf})); lo != nil || hi != nil {
			t.Fatalf("%v should yield open map, got %v %v", inf, lo, hi)
		}
	}

	clean := dataframe.NewFloatSeries("f", []float64{2.5, -1, 7})
	lo, hi := numericRange(clean)
	if lo == nil || hi == nil || *lo != -1 || *hi != 7 {
		t.Fatalf("clean floats: got %v %v, want -1 7", lo, hi)
	}

	// Masked nulls carry payload 0 and must be excluded, not counted as 0.
	withNull := dataframe.NewSeries("f", dataframe.Float)
	for _, v := range []dataframe.Value{dataframe.Null(dataframe.Float), dataframe.Float64(5), dataframe.Float64(9)} {
		if err := withNull.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	lo, hi = numericRange(withNull)
	if lo == nil || hi == nil || *lo != 5 || *hi != 9 {
		t.Fatalf("masked null leaked into range: got %v %v, want 5 9", lo, hi)
	}

	// All-null numeric columns have no range at all.
	allNull := dataframe.NewSeries("i", dataframe.Int)
	if err := allNull.Append(dataframe.Null(dataframe.Int)); err != nil {
		t.Fatal(err)
	}
	if lo, hi := numericRange(allNull); lo != nil || hi != nil {
		t.Fatalf("all-null column should have open map, got %v %v", lo, hi)
	}

	ints := dataframe.NewIntSeries("i", []int64{-3, 11, 4})
	lo, hi = numericRange(ints)
	if lo == nil || hi == nil || *lo != -3 || *hi != 11 {
		t.Fatalf("ints: got %v %v, want -3 11", lo, hi)
	}

	if lo, hi := numericRange(dataframe.NewStringSeries("s", []string{"a"})); lo != nil || hi != nil {
		t.Fatal("string columns have no numeric range")
	}
}

// TestNullCount covers the three null flavors the header field must
// agree on: masked nulls, unmasked NaN payloads, and clean values.
func TestNullCount(t *testing.T) {
	s := dataframe.NewSeries("f", dataframe.Float)
	for _, v := range []dataframe.Value{
		dataframe.Float64(1),
		dataframe.Null(dataframe.Float),
		dataframe.Float64(math.NaN()),
		dataframe.Float64(2),
	} {
		if err := s.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	if got := nullCount(s); got != 2 {
		t.Fatalf("nullCount = %d, want 2", got)
	}
	if got := nullCount(dataframe.NewIntSeries("i", []int64{1, 2})); got != 0 {
		t.Fatalf("nullCount clean = %d, want 0", got)
	}
}

func roundTripBlock(t *testing.T, s *dataframe.Series) (*dataframe.Series, []byte) {
	t.Helper()
	blk, err := encodeBlock(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeBlock(blk, s.Name(), s.Kind(), s.Len())
	if err != nil {
		t.Fatal(err)
	}
	if !s.Equal(got) {
		t.Fatalf("round trip differs for kind %v", s.Kind())
	}
	return got, blk
}

// TestIntDeltaSelection: delta encoding applies exactly to null-free
// non-decreasing int columns of length ≥ 2, and always round-trips.
func TestIntDeltaSelection(t *testing.T) {
	mono := dataframe.NewIntSeries("i", []int64{-5, -5, 0, 7, 7, 100})
	if _, blk := roundTripBlock(t, mono); blk[0] != kindIntDelta {
		t.Fatalf("monotonic ints: kind %d, want %d", blk[0], kindIntDelta)
	}

	// The uint64 subtraction trick must survive a span crossing the
	// int64 midpoint.
	span := dataframe.NewIntSeries("i", []int64{math.MinInt64, -1, 0, math.MaxInt64})
	if _, blk := roundTripBlock(t, span); blk[0] != kindIntDelta {
		t.Fatalf("midpoint span: kind %d, want %d", blk[0], kindIntDelta)
	}

	nonMono := dataframe.NewIntSeries("i", []int64{3, 1, 2})
	if _, blk := roundTripBlock(t, nonMono); blk[0] != kindInt {
		t.Fatalf("non-monotonic ints: kind %d, want %d", blk[0], kindInt)
	}

	single := dataframe.NewIntSeries("i", []int64{42})
	if _, blk := roundTripBlock(t, single); blk[0] != kindInt {
		t.Fatalf("single row: kind %d, want %d", blk[0], kindInt)
	}

	withNull := dataframe.NewSeries("i", dataframe.Int)
	for _, v := range []dataframe.Value{dataframe.Int64(1), dataframe.Null(dataframe.Int), dataframe.Int64(5)} {
		if err := withNull.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	if _, blk := roundTripBlock(t, withNull); blk[0] != kindInt {
		t.Fatalf("nullable ints: kind %d, want %d", blk[0], kindInt)
	}
}

// TestDictRLESelection: run-length coding applies when runs are long
// enough (2·runs ≤ n), nulls ride along as code 0, and both shapes
// round-trip.
func TestDictRLESelection(t *testing.T) {
	runny := dataframe.NewStringSeries("s", []string{"a", "a", "a", "b", "b", "b", "b", "a"})
	if _, blk := roundTripBlock(t, runny); blk[0] != kindDictRLE {
		t.Fatalf("long runs: kind %d, want %d", blk[0], kindDictRLE)
	}

	alternating := dataframe.NewStringSeries("s", []string{"a", "b", "a", "b", "a", "b"})
	if _, blk := roundTripBlock(t, alternating); blk[0] != kindStringDict {
		t.Fatalf("alternating: kind %d, want %d", blk[0], kindStringDict)
	}

	withNulls := dataframe.NewSeries("s", dataframe.String)
	for _, v := range []dataframe.Value{
		dataframe.Str("x"), dataframe.Str("x"),
		dataframe.Null(dataframe.String), dataframe.Null(dataframe.String),
		dataframe.Str("x"), dataframe.Str("x"),
	} {
		if err := withNulls.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	got, blk := roundTripBlock(t, withNulls)
	if blk[0] != kindDictRLE {
		t.Fatalf("nullable runs: kind %d, want %d", blk[0], kindDictRLE)
	}
	if !got.At(2).IsNull() || got.At(4).Str() != "x" {
		t.Fatal("nulls did not ride along correctly")
	}
}

// TestDeltaRejectsNullClaims: a delta block whose null bitmap claims a
// null row is corrupt by definition and must fail loudly.
func TestDeltaRejectsNullClaims(t *testing.T) {
	mono := dataframe.NewIntSeries("i", []int64{1, 2, 3})
	blk, err := encodeBlock(mono)
	if err != nil {
		t.Fatal(err)
	}
	if blk[0] != kindIntDelta {
		t.Fatalf("kind %d", blk[0])
	}
	// Byte layout: kind, uvarint n, null bitmap. Set a null bit and
	// reseal the CRC.
	corrupt := bytes.Clone(blk)
	corrupt[2] |= 1 // n=3 encodes in one byte; bitmap starts at offset 2
	corrupt = sealBlock(corrupt[:len(corrupt)-4])
	if _, err := decodeBlock(corrupt, "i", dataframe.Int, 3); err == nil {
		t.Fatal("delta block claiming nulls should fail to decode")
	}
}

// FuzzV3ColumnDecode hammers the v3 decoders specifically: delta blocks
// with truncated or oversized varints, RLE blocks with malformed run
// lengths, zero-length runs, and runs overshooting the row count must
// error or decode — never panic, never mis-size.
func FuzzV3ColumnDecode(f *testing.F) {
	mono := dataframe.NewIntSeries("i", []int64{-9007199254740993, 0, 1, 1, math.MaxInt64})
	rle := dataframe.NewStringSeries("s", []string{"alpha", "alpha", "alpha", "", "", ""})
	for _, s := range []*dataframe.Series{mono, rle} {
		blk, err := encodeBlock(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blk)
		// Truncations hit "short varint" and "runs stop early" paths.
		if len(blk) > 8 {
			f.Add(sealBlock(bytes.Clone(blk[:len(blk)/2])))
		}
	}
	// A hand-built RLE block with a zero run length.
	bad := []byte{kindDictRLE, 2, 0, 1, 1, 'q', 0, 0}
	f.Add(sealBlock(bad))
	// A delta block whose first varint is cut off.
	f.Add(sealBlock([]byte{kindIntDelta, 2, 0, 0x80}))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, kind := range []dataframe.Kind{dataframe.Int, dataframe.String} {
			s, err := decodeBlock(data, "col", kind, -1)
			if err != nil {
				continue
			}
			re, err := encodeBlock(s)
			if err != nil {
				t.Fatalf("re-encode failed: %v", err)
			}
			s2, err := decodeBlock(re, "col", kind, s.Len())
			if err != nil {
				t.Fatalf("decode of re-encoded block failed: %v", err)
			}
			if !s.Equal(s2) {
				t.Fatal("decode(encode(decode(x))) differs from decode(x)")
			}
		}
	})
}
