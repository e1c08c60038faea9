package ingest

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzWALRecordDecode throws arbitrary bytes at the WAL record parser:
// torn writes, bad CRCs, and length overflows must all come back as
// errTornRecord — never a panic, never an out-of-range slice, and never
// a bogus success.
func FuzzWALRecordDecode(f *testing.F) {
	f.Add(appendWALRecord(nil, []byte("hello")))
	f.Add(appendWALRecord(appendWALRecord(nil, []byte("a")), []byte("b")))
	f.Add([]byte{})
	f.Add([]byte{0x05, 0x00, 0x00})                               // short header
	f.Add(binary.LittleEndian.AppendUint32(nil, ^uint32(0)))      // absurd length
	f.Add(append(appendWALRecord(nil, []byte("torn"))[:8], 0x00)) // truncated payload
	corrupt := appendWALRecord(nil, []byte("payload"))
	corrupt[4] ^= 0xFF // flip a CRC byte
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		const maxRec = 1 << 20
		payload, consumed, err := parseWALRecord(data, maxRec)
		if err != nil {
			if err != errTornRecord {
				t.Fatalf("unexpected error type: %v", err)
			}
			return
		}
		if consumed < walRecHdrLen || consumed > len(data) {
			t.Fatalf("consumed %d of %d bytes", consumed, len(data))
		}
		if len(payload) != consumed-walRecHdrLen {
			t.Fatalf("payload %d bytes, consumed %d", len(payload), consumed)
		}
		if len(payload) > maxRec {
			t.Fatalf("payload %d exceeds max %d", len(payload), maxRec)
		}
		// A successfully parsed record re-encodes to exactly the bytes
		// consumed — the frame codec is a bijection on valid frames.
		if re := appendWALRecord(nil, payload); !bytes.Equal(re, data[:consumed]) {
			t.Fatalf("re-encoded record differs from parsed bytes")
		}
	})
}

// FuzzWALReplayChain parses records back-to-back the way replay does,
// checking the scan always terminates and never double-counts bytes.
func FuzzWALReplayChain(f *testing.F) {
	var chain []byte
	for _, p := range [][]byte{[]byte("one"), []byte("two"), []byte("three")} {
		chain = appendWALRecord(chain, p)
	}
	f.Add(chain)
	f.Add(append(chain, 0x01, 0x02, 0x03))
	f.Fuzz(func(t *testing.T, data []byte) {
		off, n := 0, 0
		for off < len(data) {
			_, consumed, err := parseWALRecord(data[off:], 1<<16)
			if err != nil {
				break
			}
			if consumed <= 0 {
				t.Fatalf("zero-length consume at offset %d", off)
			}
			off += consumed
			n++
			if n > len(data) {
				t.Fatal("parsed more records than input bytes")
			}
		}
		if off > len(data) {
			t.Fatalf("scanned past end: %d > %d", off, len(data))
		}
	})
}
