// Package ingest implements the streaming write path of the thicket
// store: a crash-safe write-ahead log in front of small level-0
// segments, with a background compactor folding L0 runs into large
// sorted higher-level segments.
//
// The flow is WAL → memory → L0 → L1+:
//
//  1. Submitted profiles are framed into the WAL and fsynced per the
//     configured policy; a profile is *acked* (the HTTP 200 goes out)
//     only after its WAL record is durable. Group commit batches many
//     records per fsync under load.
//  2. Acked profiles accumulate in memory. Once enough gather (or a
//     timer fires) the writer hands them off: it seals the log — renames
//     it to <wal>.sealed and starts a fresh, empty one — and goes back to
//     acking while a flusher writes the batch as a small level-0 store
//     segment. Deleting the sealed log once that segment is committed is
//     the checkpoint: everything it guarded is now in the store. At most
//     one flush is in flight; a hand-off waits for the previous one.
//  3. The compactor watches for runs of adjacent same-level segments
//     and merges each run into one segment a level up, re-sorting rows
//     node-major (the batch builder's layout) and re-folding dictionary
//     pages, so a fully compacted store is byte-identical to one built
//     from the same profiles in a single batch.
//
// Crash recovery replays the sealed log, if any, and then the live one:
// complete records become an L0 segment (skipping profiles the store
// already holds — the crash may have hit between a store flush and its
// checkpoint), and a torn tail — a partial or corrupt final record from
// a mid-write crash — is detected by CRC and dropped, never trusted.
package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"repro/internal/telemetry"
)

// WALMagic opens every write-ahead log file.
const WALMagic = "THKWAL01"

// walRecHdrLen is the fixed per-record framing: payload length (u32) +
// payload CRC32 (u32), little-endian.
const walRecHdrLen = 8

// DefaultMaxRecordBytes bounds a single WAL record. A length prefix
// beyond this is treated as corruption, not an allocation request.
const DefaultMaxRecordBytes = 64 << 20

// SyncPolicy selects when the WAL fsyncs.
type SyncPolicy int

const (
	// SyncBatch fsyncs once per Sync() call — the group-commit default:
	// the ingester appends a batch of records, syncs once, then acks
	// them all. Nothing is acked before it is durable.
	SyncBatch SyncPolicy = iota
	// SyncAlways fsyncs after every Append — strongest, slowest.
	SyncAlways
	// SyncNone never fsyncs (tests and throwaway ingest only): a crash
	// can lose acked records.
	SyncNone
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNone:
		return "none"
	}
	return "batch"
}

// ParseSyncPolicy parses "batch", "always", or "none".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "batch", "":
		return SyncBatch, nil
	case "always":
		return SyncAlways, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("ingest: unknown sync policy %q (want batch, always, or none)", s)
}

// WALOptions configures OpenWAL.
type WALOptions struct {
	Sync SyncPolicy
	// MaxRecordBytes bounds one record; 0 selects DefaultMaxRecordBytes.
	MaxRecordBytes uint32
	// Registry receives WAL metrics; nil selects telemetry.Default.
	Registry *telemetry.Registry
}

// WAL is a length+CRC framed write-ahead log at path, plus, between a
// Seal and its checkpoint, the sealed log at path+".sealed". It is not
// safe for concurrent use — the ingester owns it from a single writer
// goroutine — except DropSealed, which touches only the sealed log.
type WAL struct {
	path   string
	f      *os.File // nil once closed, or once a Seal could not open a fresh log
	lost   error    // why a Seal left no log open
	policy SyncPolicy
	maxRec uint32
	size   int64 // durable + buffered bytes
	buf    []byte

	recovered [][]byte

	records *telemetry.Counter
	bytes   *telemetry.Counter
	fsyncs  *telemetry.Counter
	fsyncS  *telemetry.Histogram
	resets  *telemetry.Counter
	torn    *telemetry.Counter
	rotateF *telemetry.Counter
}

// appendWALRecord frames payload onto buf.
func appendWALRecord(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// errTornRecord marks a record that cannot be parsed from the bytes at
// hand — a torn write or corruption. Replay treats it as end-of-log.
var errTornRecord = fmt.Errorf("ingest: torn or corrupt WAL record")

// parseWALRecord parses one framed record from the front of data.
// Returns errTornRecord for anything that does not parse completely —
// short header, length overrunning the data, length beyond maxRec, or a
// CRC mismatch. The returned payload aliases data.
func parseWALRecord(data []byte, maxRec uint32) (payload []byte, consumed int, err error) {
	if len(data) < walRecHdrLen {
		return nil, 0, errTornRecord
	}
	n := binary.LittleEndian.Uint32(data[0:4])
	crc := binary.LittleEndian.Uint32(data[4:8])
	if n > maxRec || uint64(walRecHdrLen)+uint64(n) > uint64(len(data)) {
		return nil, 0, errTornRecord
	}
	payload = data[walRecHdrLen : walRecHdrLen+int(n)]
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, 0, errTornRecord
	}
	return payload, walRecHdrLen + int(n), nil
}

// OpenWAL opens (or creates) the log at path. A sealed log a crash left
// behind is scanned first, then an existing log: complete records are
// retained for Recovered(), in that order, and a torn tail — the residue
// of a crash mid-append — is dropped; in the live log it is truncated
// away so new records never land after garbage. A file that does not
// even hold the magic is an error (it is not ours to truncate).
func OpenWAL(path string, opts WALOptions) (*WAL, error) {
	reg := opts.Registry
	if reg == nil {
		reg = telemetry.Default
	}
	maxRec := opts.MaxRecordBytes
	if maxRec == 0 {
		maxRec = DefaultMaxRecordBytes
	}
	w := &WAL{
		path:   path,
		policy: opts.Sync,
		maxRec: maxRec,
		records: reg.Counter("thicket_wal_records_total",
			"Records appended to the write-ahead log.", "wal", path),
		bytes: reg.Counter("thicket_wal_bytes_total",
			"Bytes appended to the write-ahead log.", "wal", path),
		fsyncs: reg.Counter("thicket_wal_fsyncs_total",
			"Write-ahead log fsync calls.", "wal", path),
		fsyncS: reg.Histogram("thicket_wal_fsync_seconds",
			"Write-ahead log fsync latency.", "wal", path),
		resets: reg.Counter("thicket_wal_resets_total",
			"Write-ahead log checkpoints (sealed log deleted after its flush, or log truncated after recovery).", "wal", path),
		torn: reg.Counter("thicket_wal_torn_records_total",
			"Torn or corrupt tail records dropped during WAL replay.", "wal", path),
		rotateF: reg.Counter("thicket_wal_rotate_failures_total",
			"Write-ahead log seals (rotations at a flush hand-off) that failed.", "wal", path),
	}
	if err := w.replaySealed(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ingest: open wal %s: %w", path, err)
	}
	w.f = f
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("ingest: open wal %s: %w", path, err)
	}
	if st.Size() == 0 {
		if err := w.writeHeader(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("ingest: open wal %s: %w", path, err)
		}
		w.size = int64(len(WALMagic))
		return w, nil
	}
	if err := w.replay(st.Size()); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// sealedPath is where Seal moves the log.
func (w *WAL) sealedPath() string { return w.path + ".sealed" }

// replaySealed retains the complete records of the sealed log, if one
// exists.
func (w *WAL) replaySealed() error {
	data, err := os.ReadFile(w.sealedPath())
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("ingest: replay wal %s: %w", w.sealedPath(), err)
	}
	w.recovered, _, err = w.scan(data, w.sealedPath())
	return err
}

// replay scans the existing log, retains complete records, and
// truncates the torn tail (if any) in place.
func (w *WAL) replay(size int64) error {
	data := make([]byte, size)
	if _, err := io.ReadFull(io.NewSectionReader(w.f, 0, size), data); err != nil {
		return fmt.Errorf("ingest: replay wal %s: %w", w.path, err)
	}
	records, off, err := w.scan(data, w.path)
	if err != nil {
		return err
	}
	w.recovered = append(w.recovered, records...)
	if off < size {
		if err := w.f.Truncate(off); err != nil {
			return fmt.Errorf("ingest: replay wal %s: truncate torn tail: %w", w.path, err)
		}
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("ingest: replay wal %s: %w", w.path, err)
		}
	}
	w.size = off
	return nil
}

// scan parses data, the bytes of the log at path, and returns its
// complete records and the length of the intact prefix they end.
func (w *WAL) scan(data []byte, path string) (records [][]byte, off int64, err error) {
	sp := telemetry.StartOp("wal.replay")
	defer sp.End()
	if len(data) < len(WALMagic) || string(data[:len(WALMagic)]) != WALMagic {
		return nil, 0, fmt.Errorf("ingest: replay wal %s: bad magic", path)
	}
	at := len(WALMagic)
	for at < len(data) {
		payload, consumed, err := parseWALRecord(data[at:], w.maxRec)
		if err != nil {
			// Torn tail: everything before at is intact; drop the rest.
			w.torn.Inc()
			break
		}
		records = append(records, append([]byte(nil), payload...))
		at += consumed
	}
	if sp != nil {
		sp.SetAttr("path", path)
		sp.SetAttr("records", fmt.Sprint(len(records)))
		sp.SetAttr("truncated_bytes", fmt.Sprint(len(data)-at))
	}
	return records, int64(at), nil
}

// writeHeader writes the magic into the empty log file f and, unless
// the policy never syncs, makes the file and its directory entry durable.
func (w *WAL) writeHeader(f *os.File) error {
	if _, err := f.Write([]byte(WALMagic)); err != nil {
		return err
	}
	if w.policy == SyncNone {
		return nil
	}
	if err := f.Sync(); err != nil {
		return err
	}
	return syncDir(filepath.Dir(w.path))
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Recovered returns the complete records found at open, in append
// order, and releases them.
func (w *WAL) Recovered() [][]byte {
	r := w.recovered
	w.recovered = nil
	return r
}

// Append frames payload into the log. Under SyncAlways the record is
// durable on return; otherwise it is buffered until Sync (the group
// commit) and MUST NOT be acked before then.
func (w *WAL) Append(payload []byte) error {
	if w.f == nil {
		return fmt.Errorf("ingest: wal %s: append: no open log: %w", w.path, w.lost)
	}
	if uint32(len(payload)) > w.maxRec {
		return fmt.Errorf("ingest: wal %s: record %d bytes exceeds max %d", w.path, len(payload), w.maxRec)
	}
	w.buf = appendWALRecord(w.buf[:0], payload)
	if _, err := w.f.WriteAt(w.buf, w.size); err != nil {
		return fmt.Errorf("ingest: wal %s: append: %w", w.path, err)
	}
	w.size += int64(len(w.buf))
	w.records.Inc()
	w.bytes.Add(int64(len(w.buf)))
	if w.policy == SyncAlways {
		return w.Sync()
	}
	return nil
}

// Sync makes every appended record durable — the group-commit point.
// No-op under SyncNone.
func (w *WAL) Sync() error {
	if w.policy == SyncNone {
		return nil
	}
	sp := telemetry.StartOp("wal.fsync")
	start := time.Now()
	err := w.f.Sync()
	sp.End()
	w.fsyncs.Inc()
	w.fsyncS.Observe(time.Since(start).Seconds())
	if err != nil {
		return fmt.Errorf("ingest: wal %s: fsync: %w", w.path, err)
	}
	return nil
}

// Seal moves the log to its sealed name and starts a fresh log at path
// holding only its header, durable (file and directory fsynced, unless
// the policy never syncs) before Seal returns, so no record lands in it
// before the rename is durable. sealed reports whether the rename
// happened: the sealed log then holds every record appended so far, and
// DropSealed is its checkpoint. The sealed name must be free of any
// record the store lacks: the caller checkpoints each sealed log before
// the next Seal. A failed rename leaves the records in the log, for a
// later Seal to take. If no fresh log could be opened after the rename,
// Append fails with that error from then on. Failures are counted.
func (w *WAL) Seal() (sealed bool, err error) {
	if w.f == nil {
		return false, fmt.Errorf("ingest: wal %s: seal: no open log: %w", w.path, w.lost)
	}
	if err := os.Rename(w.path, w.sealedPath()); err != nil {
		w.rotateF.Inc()
		return false, fmt.Errorf("ingest: wal %s: seal: %w", w.path, err)
	}
	w.f.Close() // every acked record in it is fsynced already
	w.f = nil
	f, err := os.OpenFile(w.path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err == nil {
		if err = w.writeHeader(f); err != nil {
			f.Close()
		}
	}
	if err != nil {
		w.rotateF.Inc()
		w.lost = fmt.Errorf("ingest: wal %s: seal: %w", w.path, err)
		return true, w.lost
	}
	w.f, w.size = f, int64(len(WALMagic))
	return true, nil
}

// DropSealed checkpoints the sealed log once the store holds every
// record in it: it deletes the file, if any, and counts a reset. It
// touches only the sealed log, so it may run beside the writer's Append.
func (w *WAL) DropSealed() error {
	if err := os.Remove(w.sealedPath()); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("ingest: wal %s: checkpoint: %w", w.path, err)
	}
	w.resets.Inc()
	return nil
}

// Reset checkpoints both logs after recovery: every record they guard is
// now durably in the store, so the log truncates back to its header, and
// then the sealed log, if any, is deleted.
func (w *WAL) Reset() error {
	if err := w.f.Truncate(int64(len(WALMagic))); err != nil {
		return fmt.Errorf("ingest: wal %s: reset: %w", w.path, err)
	}
	if w.policy != SyncNone {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("ingest: wal %s: reset: %w", w.path, err)
		}
	}
	w.size = int64(len(WALMagic))
	return w.DropSealed()
}

// Size reports the log's current length in bytes (header included).
func (w *WAL) Size() int64 { return w.size }

// Path reports the log file's path.
func (w *WAL) Path() string { return w.path }

// Close syncs and closes the log file. If a Seal left no log open, it
// returns that failure.
func (w *WAL) Close() error {
	if w.f == nil {
		return w.lost
	}
	err := w.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}
