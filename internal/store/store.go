package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/calltree"
	"repro/internal/core"
	"repro/internal/dataframe"
	"repro/internal/parallel"
	"repro/internal/profile"
	"repro/internal/telemetry"
)

// segPreludeLen is the fixed byte length of a segment prelude:
// segMagic(4) + headerLen(4) + headerCRC(4) + dataLen(8).
const segPreludeLen = 20

// segment is one live segment: its parsed header, the reader holding
// its data area, and its lifecycle state. Segments are immutable once
// scanned; compaction retires them, and a retired segment's file is
// closed (and, for directory stores, deleted) once the last view that
// names it is released.
type segment struct {
	header  segmentHeader
	dataOff int64
	dataLen int64

	gen   int64  // unique per-segment generation stamp within the store
	level int    // LSM level: 0 = fresh ingest, 1+ = compacted/sorted
	file  string // owning file path; "" when data lives in the store's own record
	r     io.ReaderAt
	owned bool // this segment owns r, its own *os.File (directory stores)

	mu      sync.Mutex
	refs    int
	retired bool
	remove  bool // delete file on finalize (compacted away)

	// profiles indexes the metadata frame's profile level: the store's
	// profile identity for the duplicate-append and refresh checks and
	// the disjoint verdict.
	// Built on first use (profileIndex); the segment is immutable, so it
	// never goes stale.
	profiles atomic.Pointer[dataframe.Index]

	// head and ords are the segment's memoized parts for every read of its rows
	// (SegmentView.Empty and Scan): the header part, and each perf row's
	// metadata row. Each is kept only once its check has passed, and,
	// like profiles, lives as long as the segment.
	head atomic.Pointer[headPart]
	ords atomic.Pointer[[]int32]

	// cols memoizes SegmentView.Columns: each frame's header description
	// by frame name, built once, frames with a block of unknown kind
	// left out.
	cols atomic.Pointer[map[string]*FrameColumns]
}

// acquire pins the segment for a view that names it.
func (sg *segment) acquire() {
	sg.mu.Lock()
	sg.refs++
	sg.mu.Unlock()
}

// release unpins; the last release of a retired segment finalizes it.
func (sg *segment) release() {
	sg.mu.Lock()
	done := false
	sg.refs--
	if sg.retired && sg.refs == 0 {
		done = true
	}
	sg.mu.Unlock()
	if done {
		sg.finalize()
	}
}

// retire marks the segment dead; finalizes now if nobody holds a pin.
func (sg *segment) retire(remove bool) {
	sg.mu.Lock()
	sg.retired = true
	sg.remove = remove
	done := sg.refs == 0
	sg.mu.Unlock()
	if done {
		sg.finalize()
	}
}

func (sg *segment) finalize() {
	if sg.owned {
		sg.closeFile()
		if sg.remove && sg.file != "" {
			os.Remove(sg.file)
		}
	}
}

// closeFile closes the segment's own file; a no-op for segments that
// share the store file or live in memory.
func (sg *segment) closeFile() error {
	if !sg.owned {
		return nil
	}
	return sg.r.(*os.File).Close()
}

// Store is an open columnar ensemble store — a directory of segment
// files under a manifest, the one layout that grows (appends and
// compaction each commit one manifest swap); a single file, which Create
// writes once and which is read-only after; or one read-only segment
// held in memory (FromThicket). All methods are safe for concurrent use.
// Readers take no lock: Open, every commit and Close each publish one
// immutable view of the store (a Snapshot) with a single atomic store,
// and a reader reads or pins the current one. Block reads go through
// positional I/O and a shared decoded-column LRU cache keyed by segment
// generation stamp.
type Store struct {
	path string
	dir  bool     // directory (manifest) layout
	f    *os.File // single-file layout only; nil in memory

	// writeMu is the writer lock: every commit (an append's validate and
	// commit, a compaction) and Close hold it, so commits run one at a
	// time and read the current view without pinning it: no other commit
	// can swap it meanwhile.
	writeMu    sync.Mutex
	closed     bool  // set by Close; commits refuse after it. Guarded by writeMu.
	nextSegGen int64 // allocator for per-segment stamps (directory layout). Guarded by writeMu.

	// view is the published view. The store holds one reference on it
	// until the next publish swaps it out.
	view atomic.Pointer[Snapshot]

	profileLevel string // set at open and never changed: read without a lock
	cache        *columnCache

	// publishHook, when set (tests only), runs in each commit between
	// its durable manifest swap and the publish.
	publishHook func()

	genGauge *telemetry.Gauge // mirrors the published layout generation into the registry
}

// Options configures Open.
type Options struct {
	// CacheBytes bounds the decoded-column LRU cache;
	// 0 selects DefaultCacheBytes, negative disables caching.
	CacheBytes int64
}

// Create writes a brand-new single-file, single-segment store holding
// th, creating parent directories. An existing file at path is
// truncated. A single-file store is written once: it takes no appends,
// so a store that grows is a directory store (CreateDir).
func Create(path string, th *core.Thicket) error {
	if dir := filepath.Dir(path); dir != "" && dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("store: create %s: %w", path, err)
	}
	defer f.Close()
	if _, err := f.Write([]byte(FileMagic)); err != nil {
		return fmt.Errorf("store: create %s: %w", path, err)
	}
	seg, err := encodeSegment(th)
	if err != nil {
		return fmt.Errorf("store: create %s: %w", path, err)
	}
	if _, err := f.Write(seg); err != nil {
		return fmt.Errorf("store: create %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	logEvent("store create", "path", path,
		"profiles", th.NumProfiles(), "bytes", int64(len(seg)))
	return nil
}

// Open parses the store's segment headers — never the column data — so
// open cost is proportional to the header index, not the ensemble.
// path may be a single store file or a manifest directory.
func Open(path string) (*Store, error) { return OpenWithOptions(path, Options{}) }

// OpenWithOptions is Open with an explicit cache budget.
func OpenWithOptions(path string, opts Options) (*Store, error) {
	st, err := os.Stat(path)
	if err == nil && st.IsDir() {
		return openDir(path, opts)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", path, err)
	}
	s := newStore(path, opts, telemetry.Default)
	s.f = f
	segs, err := parseFile(f)
	if err == nil {
		err = s.adopt(segs)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: open %s: %w", path, err)
	}
	logEvent("store open", "path", path, "segments", len(segs))
	return s, nil
}

// memPath names an in-memory store in Info, metric labels and errors.
const memPath = "(memory)"

// FromThicket holds th as a read-only, single-segment store in memory:
// the record Create would write, parsed the way Open parses it, with
// block reads served from the encoded bytes. It is how a thicket that
// did not come from a store reaches the query planner. Load reproduces
// th exactly. The store's metrics live in a private registry, so
// in-memory stores never share cache counters.
func FromThicket(th *core.Thicket) (*Store, error) {
	seg, err := encodeSegment(th)
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", memPath, err)
	}
	rec := append([]byte(FileMagic), seg...)
	s := newStore(memPath, Options{}, telemetry.NewRegistry())
	segs, err := parseSegments(bytes.NewReader(rec), int64(len(rec)))
	if err == nil {
		err = s.adopt(segs)
	}
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", memPath, err)
	}
	return s, nil
}

// newStore builds an empty store whose generation gauge and cache
// counters register in reg.
func newStore(path string, opts Options, reg *telemetry.Registry) *Store {
	cacheBytes := opts.CacheBytes
	if cacheBytes == 0 {
		cacheBytes = DefaultCacheBytes
	}
	return &Store{
		path:  path,
		cache: newColumnCache(cacheBytes, path, reg),
		genGauge: reg.Gauge("thicket_store_generation",
			"Store layout generation (bumps on every append or compaction).", "store", path),
	}
}

// parseFile parses the segment records of one store file.
func parseFile(f *os.File) ([]*segment, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return parseSegments(f, st.Size())
}

// parseSegments scans the segment records of one store record of size
// bytes, starting after the file magic, returning parsed headers with
// their data offsets.
func parseSegments(r io.ReaderAt, size int64) ([]*segment, error) {
	magic := make([]byte, len(FileMagic))
	if _, err := io.ReadFull(io.NewSectionReader(r, 0, int64(len(FileMagic))), magic); err != nil {
		return nil, fmt.Errorf("reading magic: %w", err)
	}
	if string(magic) != FileMagic {
		return nil, fmt.Errorf("bad magic %q (want %q)", magic, FileMagic)
	}
	var segs []*segment
	off := int64(len(FileMagic))
	for off < size {
		var prelude [segPreludeLen]byte
		if _, err := r.ReadAt(prelude[:], off); err != nil {
			return nil, fmt.Errorf("segment %d prelude at offset %d: %w", len(segs), off, err)
		}
		if string(prelude[:4]) != segMagic {
			return nil, fmt.Errorf("segment %d at offset %d: bad segment magic %q", len(segs), off, prelude[:4])
		}
		headerLen := binary.LittleEndian.Uint32(prelude[4:8])
		headerCRC := binary.LittleEndian.Uint32(prelude[8:12])
		dataLen := binary.LittleEndian.Uint64(prelude[12:20])
		if int64(headerLen) > size-off-segPreludeLen {
			return nil, fmt.Errorf("segment %d: header length %d exceeds file", len(segs), headerLen)
		}
		hdrBytes := make([]byte, headerLen)
		if _, err := r.ReadAt(hdrBytes, off+segPreludeLen); err != nil {
			return nil, fmt.Errorf("segment %d header: %w", len(segs), err)
		}
		if got := crc32.Checksum(hdrBytes, crcTable); got != headerCRC {
			return nil, fmt.Errorf("segment %d: header CRC mismatch (file %08x, computed %08x)", len(segs), headerCRC, got)
		}
		var hdr segmentHeader
		if err := json.Unmarshal(hdrBytes, &hdr); err != nil {
			return nil, fmt.Errorf("segment %d header: %w", len(segs), err)
		}
		if hdr.Version < minReadVersion || hdr.Version > FormatVersion {
			return nil, fmt.Errorf("segment %d: unsupported format version %d (want %d..%d)", len(segs), hdr.Version, minReadVersion, FormatVersion)
		}
		dataOff := off + segPreludeLen + int64(headerLen)
		if dataOff+int64(dataLen) > size {
			return nil, fmt.Errorf("segment %d: data area [%d, %d) exceeds file size %d", len(segs), dataOff, dataOff+int64(dataLen), size)
		}
		for _, fm := range hdr.Frames {
			for _, cm := range append(append([]columnMeta(nil), fm.Levels...), fm.Cols...) {
				if cm.Offset+cm.Length > dataLen {
					return nil, fmt.Errorf("segment %d: block %v overruns data area", len(segs), cm.Key)
				}
			}
		}
		segs = append(segs, &segment{
			header: hdr, dataOff: dataOff, dataLen: int64(dataLen), r: r,
		})
		off = dataOff + int64(dataLen)
	}
	return segs, nil
}

// adopt installs the parsed segments of a single-record store (a store
// file, or an in-memory record). Per-segment generation stamps are
// positional: such a store is never written again, so position is a
// stable identity.
func (s *Store) adopt(segs []*segment) error {
	if len(segs) == 0 {
		return fmt.Errorf("no segments")
	}
	first := segs[0].header.ProfileLevel
	for i, sg := range segs {
		if sg.header.ProfileLevel != first {
			return fmt.Errorf("segment %d uses profile level %q, segment 0 uses %q", i, sg.header.ProfileLevel, first)
		}
		sg.gen = int64(i + 1)
		if i == 0 {
			sg.level = 1 // the batch-built base
		}
	}
	s.profileLevel = first
	s.publish(&Snapshot{segs: segs, tree: headerUnion(nil, segs)})
	return nil
}

// publish makes sn, a view no reader has seen, the store's current view
// with one atomic store. The view takes one reference on each of its
// segments, and the store one on the view; the view swapped out loses
// the store's reference. A view of fewer than two segments holds the
// disjoint verdict from the start. Caller holds writeMu, or is opening
// the store.
func (s *Store) publish(sn *Snapshot) {
	sn.st = s
	sn.refs.Store(1)
	for _, sg := range sn.segs {
		sg.acquire()
	}
	if len(sn.segs) < 2 {
		sn.disjoint.Store(verdictHolds)
	}
	s.genGauge.Set(sn.gen)
	if old := s.view.Swap(sn); old != nil {
		old.Release()
	}
}

// headerUnion returns a new tree holding base's nodes and then those of
// segs' call trees, read from their headers' paths in layout order: the
// tree calltree.Union(base, trees...) builds. No block is read.
func headerUnion(base *calltree.Tree, segs []*segment) *calltree.Tree {
	tree := calltree.Union(base)
	for _, sg := range segs {
		for _, p := range sg.header.TreePaths {
			_, _ = tree.AddPath(p) // an empty path is left out: every read of its segment fails on it
		}
	}
	return tree
}

// Close releases every underlying file. It waits for a commit in
// flight, and refuses the commits that come after it. It publishes an
// empty view at the same generations, so later reads fail as an empty
// store's do, and closes the old view's segment files at once, pinned
// or not.
func (s *Store) Close() error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	s.closed = true
	var err error
	if s.f != nil {
		err = s.f.Close()
	}
	old := s.view.Load()
	s.publish(&Snapshot{gen: old.gen, contentGen: old.contentGen, tree: calltree.New()})
	for _, sg := range old.segs {
		if cerr := sg.closeFile(); err == nil {
			err = cerr
		}
	}
	return err
}

// Path returns the store's file or directory path.
func (s *Store) Path() string { return s.path }

// IsDir reports whether the store uses the directory (manifest) layout.
func (s *Store) IsDir() bool { return s.dir }

// ProfileLevel reports the profile index level name shared by every
// segment.
func (s *Store) ProfileLevel() string { return s.profileLevel }

// NumSegments reports the number of live segments.
func (s *Store) NumSegments() int { return len(s.view.Load().segs) }

// Generation reports the layout generation: it changes whenever the
// segment set changes — every append AND every compaction. Consumers
// holding a decoded view (thicketd's resident thicket) Refresh it when
// it moves.
func (s *Store) Generation() int64 { return s.view.Load().gen }

// ContentGeneration reports the content generation: it changes only
// when the store's logical contents change (appends), NOT when
// compaction reorganizes the same rows into fewer segments. Caches of
// query *answers* stamp entries with this; caches of *layout* (decoded
// columns) key by per-segment stamps instead.
func (s *Store) ContentGeneration() int64 { return s.view.Load().contentGen }

// Generations lists the live segments' generation stamps in layout
// (logical arrival) order.
func (s *Store) Generations() []int64 {
	segs := s.view.Load().segs
	out := make([]int64, len(segs))
	for i, sg := range segs {
		out[i] = sg.gen
	}
	return out
}

// Segments summarizes the live segments (generation, level, profile
// count) in layout order from headers alone — the compactor's planning
// input. Byte sizes are the in-file record sizes; Info() refines them.
func (s *Store) Segments() []SegmentInfo {
	segs := s.view.Load().segs
	out := make([]SegmentInfo, len(segs))
	for i, sg := range segs {
		out[i] = SegmentInfo{
			Gen: sg.gen, Level: sg.level, Profiles: sg.header.NProfiles,
			Bytes: segPreludeLen + sg.dataLen, File: sg.fileName(),
		}
	}
	return out
}

// fileName is the base name of the segment's own file, "" when its data
// lives in the store's own record.
func (sg *segment) fileName() string {
	if sg.file == "" {
		return ""
	}
	return filepath.Base(sg.file)
}

// encodeSegment serializes one thicket as a complete segment record.
func encodeSegment(th *core.Thicket) ([]byte, error) {
	hdr := segmentHeader{
		Version:      FormatVersion,
		ProfileLevel: th.ProfileLevelName(),
		NProfiles:    th.NumProfiles(),
		TreePaths:    th.Tree.Paths(),
	}
	var data []byte
	for _, fr := range []struct {
		name  string
		frame *dataframe.Frame
	}{{framePerf, th.PerfData}, {frameMeta_, th.Metadata}, {frameStats, th.Stats}} {
		var fm frameMeta
		var err error
		data, fm, err = encodeFrame(fr.name, fr.frame, data)
		if err != nil {
			return nil, err
		}
		hdr.Frames = append(hdr.Frames, fm)
	}
	hdrBytes, err := json.Marshal(hdr)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, segPreludeLen+len(hdrBytes)+len(data))
	out = append(out, segMagic...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(hdrBytes)))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(hdrBytes, crcTable))
	out = binary.LittleEndian.AppendUint64(out, uint64(len(data)))
	out = append(out, hdrBytes...)
	out = append(out, data...)
	return out, nil
}

// readBlock fetches and decodes one column block, consulting the LRU
// cache first. name and kind come from the segment header. parent is
// the enclosing loadFrame span (nil-safe); readBlock runs on parallel
// worker goroutines, so its spans cross goroutine boundaries. The
// block boundary is also the cancellation point: an expired ctx stops
// the scan before the next read, and the context's ScanObserver (if
// any) hears about every block the scan touches.
func (s *Store) readBlock(ctx context.Context, parent *telemetry.Span, seg *segment, frame string, blockIdx int, cm columnMeta, name string) (*dataframe.Series, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if obs := scanObserverFrom(ctx); obs != nil {
		obs.BlockRead(frame, name)
		// The observer may have consumed the context's remaining budget
		// (e.g. an injected per-block delay); re-check before decoding.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	sp := parent.StartChild("store.readBlock")
	if sp != nil {
		sp.SetAttr("frame", frame)
		sp.SetAttr("column", name)
		defer sp.End()
	}
	key := cacheKey{gen: seg.gen, frame: frame, block: blockIdx}
	if cached := s.cache.get(key); cached != nil {
		sp.SetAttr("cache", "hit")
		return cached, nil
	}
	sp.SetAttr("cache", "miss")
	kind, err := parseKindName(cm.Kind)
	if err != nil {
		return nil, fmt.Errorf("store: %s: segment g%d frame %s block %v: %w", s.path, seg.gen, frame, cm.Key, err)
	}
	buf := make([]byte, cm.Length)
	if _, err := seg.r.ReadAt(buf, seg.dataOff+int64(cm.Offset)); err != nil {
		return nil, fmt.Errorf("store: %s: segment g%d frame %s block %v: %w", s.path, seg.gen, frame, cm.Key, err)
	}
	fm := seg.header.frame(frame)
	wantRows := -1
	if fm != nil {
		wantRows = fm.NRows
	}
	series, err := decodeBlock(buf, name, kind, wantRows)
	if err != nil {
		return nil, fmt.Errorf("store: %s: segment g%d frame %s: %w", s.path, seg.gen, frame, err)
	}
	s.cache.put(key, series)
	return series, nil
}

func parseKindName(s string) (dataframe.Kind, error) {
	switch s {
	case "float":
		return dataframe.Float, nil
	case "int":
		return dataframe.Int, nil
	case "string":
		return dataframe.String, nil
	case "bool":
		return dataframe.Bool, nil
	}
	return 0, fmt.Errorf("unknown kind %q", s)
}

// loadFrame decodes one frame of one segment. keep selects the data
// columns to materialize (nil keeps all); index levels always load.
// Block decoding fans out across the parallel engine — blocks are
// independent units written to fixed slots, so the result is identical
// at any worker count.
func (s *Store) loadFrame(ctx context.Context, parent *telemetry.Span, seg *segment, name string, keep func(dataframe.ColKey) bool) (*dataframe.Frame, error) {
	sp := parent.StartChild("store.loadFrame")
	if sp != nil {
		sp.SetAttr("frame", name)
		sp.SetAttr("segment", fmt.Sprint(seg.gen))
		defer sp.End()
	}
	fm := seg.header.frame(name)
	if fm == nil {
		return nil, fmt.Errorf("store: %s: segment g%d has no frame %q", s.path, seg.gen, name)
	}
	type job struct {
		cm       columnMeta
		blockIdx int
		name     string
	}
	var jobs []job
	for l, cm := range fm.Levels {
		jobs = append(jobs, job{cm: cm, blockIdx: l, name: cm.Key[len(cm.Key)-1]})
	}
	var colKeys []dataframe.ColKey
	for c, cm := range fm.Cols {
		key := dataframe.ColKey(cm.Key)
		if keep != nil && !keep(key) {
			continue
		}
		colKeys = append(colKeys, key.Copy())
		jobs = append(jobs, job{cm: cm, blockIdx: len(fm.Levels) + c, name: key.Leaf()})
	}
	decoded := make([]*dataframe.Series, len(jobs))
	if err := parallel.ForErr(len(jobs), func(i int) error {
		series, err := s.readBlock(ctx, sp, seg, name, jobs[i].blockIdx, jobs[i].cm, jobs[i].name)
		if err != nil {
			return err
		}
		decoded[i] = series
		return nil
	}); err != nil {
		return nil, err
	}
	levels := decoded[:len(fm.Levels)]
	ix, err := dataframe.NewIndex(levels...)
	if err != nil {
		return nil, fmt.Errorf("store: %s: segment g%d frame %s: %w", s.path, seg.gen, name, err)
	}
	return dataframe.NewFrameWithColIndex(ix, colKeys, decoded[len(fm.Levels):])
}

// Load materializes the whole store as one thicket. A single-segment
// store reproduces the stored thicket exactly — frames, tree, stats,
// and profile level, bit for bit. A multi-segment store stacks the
// segments' profiles over the union call tree, as concatenating their
// thickets would; aggregated statistics reset to empty since stored
// stats no longer cover the appended profiles.
func (s *Store) Load() (*core.Thicket, error) {
	sn := s.Snapshot()
	defer sn.Release()
	return sn.load(nil)
}

// LoadProjection materializes the store with the performance-data
// columns restricted to keys — only those columns' blocks are read and
// decoded, which is the point of the columnar layout. Metadata always
// loads in full (it is small); stats come back empty. An unknown key is
// an error.
func (s *Store) LoadProjection(keys []dataframe.ColKey) (*core.Thicket, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("store: %s: empty projection", s.path)
	}
	want := make(map[string]bool, len(keys))
	for _, k := range keys {
		want[k.String()] = true
	}
	sn := s.Snapshot()
	defer sn.Release()
	available := map[string]bool{}
	for _, seg := range sn.segs {
		if fm := seg.header.frame(framePerf); fm != nil {
			for _, cm := range fm.Cols {
				available[dataframe.ColKey(cm.Key).String()] = true
			}
		}
	}
	for _, k := range keys {
		if !available[k.String()] {
			return nil, fmt.Errorf("store: %s: no perf column %v in any segment", s.path, k)
		}
	}
	return sn.load(func(k dataframe.ColKey) bool { return want[k.String()] })
}

// load reads every segment of the view under the store.Load span,
// keepPerf projecting the perf columns (nil keeps all).
func (sn *Snapshot) load(keepPerf func(dataframe.ColKey) bool) (*core.Thicket, error) {
	sp := telemetry.StartOp("store.Load")
	defer sp.End()
	if sp != nil {
		sp.SetAttr("path", sn.st.path)
		sp.SetAttr("segments", fmt.Sprint(len(sn.segs)))
	}
	return sn.gather(context.Background(), sp, sn.segs, keepPerf)
}

// gather reads segs, a run of the view's segments, through their
// scan parts: Load over that run, keepPerf projecting the perf columns
// (nil keeps all). One segment comes back as stored, stats included
// unless projected, in copies of its checked parts; several are gathered
// into one core.ConcatFrames over the union of their trees.
func (sn *Snapshot) gather(ctx context.Context, sp *telemetry.Span, segs []*segment, keepPerf func(dataframe.ColKey) bool) (*core.Thicket, error) {
	if len(segs) == 0 {
		return nil, fmt.Errorf("store: %s: empty store", sn.st.path)
	}
	if len(segs) == 1 {
		part, err := SegmentView{st: sn.st, seg: segs[0]}.scan(ctx, sp, keepPerf == nil, keepPerf)
		if err != nil {
			return nil, err
		}
		return core.Assemble(part.tree, part.Perf, part.Meta, part.Stats, segs[0].header.ProfileLevel).Copy(), nil
	}
	var g gathering
	for _, seg := range segs {
		part, err := SegmentView{st: sn.st, seg: seg}.scan(ctx, sp, false, keepPerf)
		if err != nil {
			return nil, err
		}
		g.add(part, 0)
	}
	return sn.concat(&g)
}

// gathering is one core.ConcatFrames in the making: the call trees it
// unions and the perf and metadata rows it stacks, in order.
type gathering struct {
	trees        []*calltree.Tree
	perfs, metas []dataframe.Part
}

// add takes a part's profiles from metadata row from on — every row when
// from is 0 — with their perf rows, which the part's ordinals find as
// the plan finds a selection's.
func (g *gathering) add(part SegmentPart, from int) {
	g.trees = append(g.trees, part.tree)
	if from == 0 {
		g.perfs = append(g.perfs, dataframe.AllRows(part.Perf))
		g.metas = append(g.metas, dataframe.AllRows(part.Meta))
		return
	}
	n := part.Meta.NRows()
	unseen := make(dataframe.Sel, 0, n-from)
	for r := from; r < n; r++ {
		unseen = append(unseen, uint32(r))
	}
	g.perfs = append(g.perfs, dataframe.Part{Frame: part.Perf, Rows: core.PerfRows(part.Ordinals, unseen, n)})
	g.metas = append(g.metas, dataframe.Part{Frame: part.Meta, Rows: dataframe.SelToRows(unseen)})
}

// concat runs g's core.ConcatFrames over the union of its trees, a tree
// the result owns, and checks the result's profiles (CheckProfiles).
func (sn *Snapshot) concat(g *gathering) (*core.Thicket, error) {
	th, err := core.ConcatFrames(calltree.Union(g.trees...), g.perfs, g.metas, sn.ProfileLevel())
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", sn.st.path, err)
	}
	if err := sn.CheckProfiles(th.Metadata); err != nil {
		return nil, err
	}
	return th, nil
}

// Refresh modes: how Refresh produced its thicket. They label the
// store.Load span and the server's reload histogram.
const (
	RefreshDelta = "delta"
	RefreshFull  = "full"
)

// Refresh brings prev — a thicket an earlier Load or Refresh of this
// store returned — up to date, answering exactly as a fresh Load would.
// The store is append-only and compaction keeps arrival order, so the
// store's first prev.NumProfiles() profiles are prev's: when the live
// profile count equals prev's (a compaction, or no change), Refresh
// returns prev itself without reading a block. Otherwise it checks
// that the store's profile at ordinal prev.NumProfiles()-1 is prev's
// last metadata key, then gathers prev's rows and only the profiles
// after it: whole new segments, plus the unseen tail rows of a segment
// the compactor merged across that point. When the prefix check fails —
// prev came from elsewhere — it loads the whole store (mode
// RefreshFull). gen and contentGen are the generations of exactly the
// segment set the result reflects: those of the view it pinned.
// Refresh runs under the store.Load span, with its mode as an attribute.
func (s *Store) Refresh(prev *core.Thicket) (th *core.Thicket, gen, contentGen int64, mode string, err error) {
	sp := telemetry.StartOp("store.Load")
	defer sp.End()
	sn := s.Snapshot()
	defer sn.Release()
	if sp != nil {
		sp.SetAttr("path", s.path)
		sp.SetAttr("segments", fmt.Sprint(len(sn.segs)))
	}
	ctx := context.Background()
	g, ok, err := sn.tailAfter(ctx, sp, prev)
	if err != nil {
		return nil, sn.gen, sn.contentGen, RefreshDelta, err
	}
	mode = RefreshDelta
	switch {
	case !ok:
		mode = RefreshFull
		th, err = sn.gather(ctx, sp, sn.segs, nil)
	case g == nil:
		th = prev
	default:
		th, err = sn.concat(g)
	}
	sp.SetAttr("mode", mode)
	return th, sn.gen, sn.contentGen, mode, err
}

// tailAfter gathers prev's rows and then the profiles the view holds
// beyond prev's, in arrival order. ok is false when prev is not a prefix
// of the view; g is nil when nothing is new.
func (sn *Snapshot) tailAfter(ctx context.Context, sp *telemetry.Span, prev *core.Thicket) (g *gathering, ok bool, err error) {
	segs := sn.segs
	if prev == nil || prev.NumProfiles() == 0 || prev.ProfileLevelName() != sn.ProfileLevel() {
		return nil, false, nil
	}
	n, total := prev.NumProfiles(), 0
	for _, seg := range segs {
		total += seg.header.NProfiles
	}
	switch {
	case n > total:
		return nil, false, nil
	case n == total:
		// Append-only, order-keeping store: same count, same content.
		return nil, true, nil
	}
	// Find the segment k holding ordinal n-1; start is its first ordinal.
	k, start := 0, 0
	for n-1 >= start+segs[k].header.NProfiles {
		start += segs[k].header.NProfiles
		k++
	}
	ix, err := sn.st.profileIndex(ctx, sp, segs[k])
	if err != nil {
		return nil, false, err
	}
	last := prev.Metadata.Index().Level(0).At(n - 1)
	if !slices.Contains(ix.Lookup([]dataframe.Value{last}), n-1-start) {
		return nil, false, nil
	}
	g = &gathering{}
	g.add(SegmentPart{Perf: prev.PerfData, Meta: prev.Metadata, tree: prev.Tree}, 0)
	// Segment k's first unseen profile. A segment the compactor merged
	// across prev's end may hold paths only its seen rows use; prev
	// already has them, so the union tree comes out the same.
	from := n - start
	if from == segs[k].header.NProfiles {
		k, from = k+1, 0
	}
	for _, seg := range segs[k:] {
		part, err := SegmentView{st: sn.st, seg: seg}.scan(ctx, sp, false, nil)
		if err != nil {
			return nil, false, err
		}
		g.add(part, from)
		from = 0
	}
	return g, true, nil
}

// profileIndex returns the index over one segment's profile level of
// the metadata frame. The first use decodes that single block, through
// the column cache; racing first uses may each build one, and all adopt
// the first published.
func (s *Store) profileIndex(ctx context.Context, sp *telemetry.Span, seg *segment) (*dataframe.Index, error) {
	if ix := seg.profiles.Load(); ix != nil {
		return ix, nil
	}
	if fm := seg.header.frame(frameMeta_); fm != nil {
		for l, cm := range fm.Levels {
			if name := cm.Key[len(cm.Key)-1]; name == seg.header.ProfileLevel {
				profs, err := s.readBlock(ctx, sp, seg, frameMeta_, l, cm, name)
				if err != nil {
					return nil, err
				}
				seg.profiles.CompareAndSwap(nil, dataframe.MustIndex(profs))
				return seg.profiles.Load(), nil
			}
		}
	}
	return nil, fmt.Errorf("store: %s: segment g%d has no metadata level %q", s.path, seg.gen, seg.header.ProfileLevel)
}

// CheckProfiles guards meta, a metadata frame gathered from the view's
// segments, against a profile two of them share, and fails as Load
// fails. Where the view's disjoint verdict holds it checks nothing;
// otherwise it checks meta's own index.
func (sn *Snapshot) CheckProfiles(meta *dataframe.Frame) error {
	if sn.segmentsDisjoint() || !meta.Index().HasDuplicates() {
		return nil
	}
	return fmt.Errorf("store: %s: %w", sn.st.path, core.ErrSharedProfiles)
}

// The view's disjoint verdict: whether no profile appears in two of its
// segments.
const (
	verdictUndrawn int32 = iota
	verdictHolds
	verdictFails
)

// segmentsDisjoint reports the view's disjoint verdict, drawing it on
// first use. A view of fewer than two segments holds it when published,
// and a commit hands a held verdict to the next view where its segment
// adds no profile the layout holds; any other view draws it once. A
// collision, or a profile block that will not read, leaves it unproven.
// Its block reads are charged to no request: they reach no
// ScanObserver.
func (sn *Snapshot) segmentsDisjoint() bool {
	if sn.disjoint.Load() == verdictUndrawn {
		v := verdictFails
		if sn.st.shareNoProfile(sn.segs) {
			v = verdictHolds
		}
		sn.disjoint.CompareAndSwap(verdictUndrawn, v) // a racing draw's verdict serves as well
	}
	return sn.disjoint.Load() == verdictHolds
}

// shareNoProfile stacks the profile levels of segs, two or more
// segments, into one series and reports whether its index holds no
// repeated key.
func (s *Store) shareNoProfile(segs []*segment) bool {
	var all *dataframe.Series
	for _, seg := range segs {
		ix, err := s.profileIndex(context.Background(), nil, seg)
		if err != nil {
			return false
		}
		level := ix.Level(0)
		if all == nil {
			all = dataframe.NewSeries(level.Name(), level.Kind()) // its own dictionary: the segments' stay as they are
		}
		if err := all.AppendSeries(level); err != nil {
			return false
		}
	}
	return !dataframe.MustIndex(all).HasDuplicates()
}

// LoadSegments reads the live segments stamped gens, in that order, as
// Load reads the whole store: the compactor's read of the run it merges.
func (s *Store) LoadSegments(gens []int64) (*core.Thicket, error) {
	sn := s.Snapshot()
	defer sn.Release()
	run := make([]*segment, len(gens))
	for i, gen := range gens {
		j := slices.IndexFunc(sn.segs, func(sg *segment) bool { return sg.gen == gen })
		if j < 0 {
			return nil, fmt.Errorf("store: %s: no live segment with generation %d", s.path, gen)
		}
		run[i] = sn.segs[j]
	}
	return sn.gather(context.Background(), nil, run, nil)
}

// Metadata loads only the metadata frames (concatenated across
// segments) without touching performance data — the fast path for
// profile listing and filtering.
func (s *Store) Metadata() (*dataframe.Frame, error) {
	sp := telemetry.StartOp("store.Metadata")
	sp.SetAttr("path", s.path)
	defer sp.End()
	sn := s.Snapshot()
	defer sn.Release()
	if len(sn.segs) == 0 {
		return nil, fmt.Errorf("store: %s: empty store", s.path)
	}
	frames := make([]*dataframe.Frame, len(sn.segs))
	for i, seg := range sn.segs {
		f, err := s.loadFrame(context.Background(), sp, seg, frameMeta_, nil)
		if err != nil {
			return nil, err
		}
		frames[i] = f
	}
	if len(frames) == 1 {
		return frames[0].Copy(), nil // it holds the cache's shared series
	}
	out, err := dataframe.ConcatRowsOuter(frames...)
	if err != nil {
		return nil, fmt.Errorf("store: %s: metadata: %w", s.path, err)
	}
	return out, nil
}

// validateAppend checks th against the store's invariants: shared
// profile level, index levels and columns whose kinds agree with stored
// ones of the same name or key, and no reused profile-index values. Its
// cost is a header walk plus one Locate of th's profiles per live
// segment, on each segment's profile index. Only a directory store takes
// appends. Caller holds writeMu, so the current view is the one the
// append commits onto.
func (s *Store) validateAppend(th *core.Thicket) error {
	if !s.dir {
		return fmt.Errorf("store: %s: read-only: a single-file store is written once; appends go to directory stores", s.path)
	}
	if got, want := th.ProfileLevelName(), s.ProfileLevel(); got != want {
		return fmt.Errorf("store: %s: appended thicket uses profile level %q, store uses %q", s.path, got, want)
	}
	segs := s.view.Load().segs
	// Levels key apart from columns (\x01, not \x00), which may share
	// their names.
	kinds := map[string]string{}
	for _, seg := range segs {
		for _, fm := range seg.header.Frames {
			for _, cm := range fm.Levels {
				kinds[fm.Name+"\x01"+cm.Key[len(cm.Key)-1]] = cm.Kind
			}
			for _, cm := range fm.Cols {
				kinds[fm.Name+"\x00"+dataframe.ColKey(cm.Key).String()] = cm.Kind
			}
		}
	}
	for name, fr := range map[string]*dataframe.Frame{framePerf: th.PerfData, frameMeta_: th.Metadata} {
		ix := fr.Index()
		for l := 0; l < ix.NLevels(); l++ {
			if have, ok := kinds[name+"\x01"+ix.Names()[l]]; ok && have != ix.Level(l).Kind().String() {
				return fmt.Errorf("store: %s: index level %q kind %s conflicts with stored kind %s",
					s.path, ix.Names()[l], ix.Level(l).Kind(), have)
			}
		}
		for c := 0; c < fr.NCols(); c++ {
			k := name + "\x00" + fr.ColIndex().Key(c).String()
			if have, ok := kinds[k]; ok && have != fr.ColumnAt(c).Kind().String() {
				return fmt.Errorf("store: %s: column %v kind %s conflicts with stored kind %s",
					s.path, fr.ColIndex().Key(c), fr.ColumnAt(c).Kind(), have)
			}
		}
	}
	probe := th.Metadata.Index().Level(0)
	dup := probe.Len() // first batch row already stored
	for _, seg := range segs {
		ix, err := s.profileIndex(context.Background(), nil, seg)
		if err != nil {
			return err
		}
		for r, o := range ix.Locate(probe)[:dup] {
			if o >= 0 {
				dup = r
				break
			}
		}
	}
	if dup < probe.Len() {
		return fmt.Errorf("store: %s: profile index %s already present", s.path, probe.At(dup))
	}
	return nil
}

// Append writes th as a new level-0 segment at a directory store's tail,
// committed by one manifest swap; a single-file or in-memory store
// refuses it as read-only. Existing segments are untouched. The thicket
// must share the store's profile level, must not reuse existing
// profile-index values, and its index-level and column kinds must agree
// with stored ones of the same name or key.
func (s *Store) Append(th *core.Thicket) error { return s.AppendSegment(th, 0) }

// AppendSegment is Append with an explicit LSM level for the new
// segment (0 = fresh ingest batch, 1+ = compacted).
func (s *Store) AppendSegment(th *core.Thicket, level int) error {
	sp := telemetry.StartOp("store.Append")
	if sp != nil {
		sp.SetAttr("path", s.path)
		sp.SetAttr("profiles", fmt.Sprint(th.NumProfiles()))
		defer sp.End()
	}
	// The whole validate+commit sequence holds the writer lock, so
	// concurrent appends cannot both pass the duplicate-profile check,
	// and the event is logged before the next commit.
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if err := s.validateAppend(th); err != nil {
		return err
	}
	rec, err := encodeSegment(th)
	if err != nil {
		return fmt.Errorf("store: %s: append: %w", s.path, err)
	}
	// The check has just located th's profiles in every live segment:
	// the segment is proven to add none they hold.
	gen, _, err := s.commitSegment(rec, level, len(s.view.Load().segs), 0, true)
	if err != nil {
		return fmt.Errorf("store: %s: append: %w", s.path, err)
	}
	logEvent("store append", "path", s.path,
		"profiles", th.NumProfiles(), "generation", s.view.Load().gen, "segment_gen", gen, "bytes", int64(len(rec)))
	return nil
}

// AppendProfiles composes raw profiles into a thicket keyed the same
// way as the store (reusing the stored profile level as IndexBy when it
// is not the default hash index) and appends them as a new level-0
// segment — the incremental ingest path.
func (s *Store) AppendProfiles(profiles []*profile.Profile) error {
	th, err := s.ComposeProfiles(profiles)
	if err != nil {
		return fmt.Errorf("store: %s: append profiles: %w", s.path, err)
	}
	return s.Append(th)
}

// ComposeProfiles builds a thicket from raw profiles using the store's
// profile level as the index — the shared front half of AppendProfiles,
// exposed so the ingest pipeline can batch composition separately from
// the durable append.
func (s *Store) ComposeProfiles(profiles []*profile.Profile) (*core.Thicket, error) {
	return core.FromProfiles(profiles, s.ComposeOptions())
}

// ComposeOptions are the options ComposeProfiles composes with: the
// store's profile level as the index.
func (s *Store) ComposeOptions() core.Options {
	opts := core.Options{}
	if lvl := s.ProfileLevel(); lvl != core.ProfileLevel {
		opts.IndexBy = lvl
	}
	return opts
}

// ColumnInfo summarizes one stored column across segments.
type ColumnInfo struct {
	Key   dataframe.ColKey `json:"key"`
	Kind  string           `json:"kind"`
	Bytes int64            `json:"bytes"`
}

// SegmentInfo summarizes one live segment.
type SegmentInfo struct {
	Gen      int64  `json:"gen"`
	Level    int    `json:"level"`
	Profiles int    `json:"profiles"`
	Bytes    int64  `json:"bytes"`
	File     string `json:"file,omitempty"`
}

// Info is the store's header-level summary; computing it never touches
// column data.
type Info struct {
	Path         string        `json:"path"`
	FileBytes    int64         `json:"file_bytes"`
	Segments     int           `json:"segments"`
	SegmentList  []SegmentInfo `json:"segment_list,omitempty"`
	Generation   int64         `json:"generation"`
	ContentGen   int64         `json:"content_generation"`
	Profiles     int           `json:"profiles"`
	PerfRows     int           `json:"perf_rows"`
	Nodes        int           `json:"nodes"`
	ProfileLevel string        `json:"profile_level"`
	PerfColumns  []ColumnInfo  `json:"perf_columns"`
	MetaColumns  []ColumnInfo  `json:"meta_columns"`
	CacheHits    int64         `json:"cache_hits"`
	CacheMisses  int64         `json:"cache_misses"`
	CacheBytes   int64         `json:"cache_bytes"`
	CacheEntries int           `json:"cache_entries"`
}

// Info reports the store's shape from headers alone, all of it from one
// view: the generations name exactly the segments it lists.
func (s *Store) Info() Info {
	sn := s.view.Load()
	segs := sn.segs
	info := Info{
		Path:         s.path,
		Segments:     len(segs),
		ProfileLevel: s.profileLevel,
		Generation:   sn.gen,
		ContentGen:   sn.contentGen,
	}
	if s.f != nil {
		if st, err := s.f.Stat(); err == nil {
			info.FileBytes = st.Size()
		}
	}
	// Columns in first-appearance order, block sizes summed across
	// segments (a column appended later shows up after the originals).
	sumCols := func(frame string) []ColumnInfo {
		pos := map[string]int{}
		var out []ColumnInfo
		for _, seg := range segs {
			fm := seg.header.frame(frame)
			if fm == nil {
				continue
			}
			for _, cm := range fm.Cols {
				id := dataframe.ColKey(cm.Key).String()
				i, ok := pos[id]
				if !ok {
					i = len(out)
					pos[id] = i
					out = append(out, ColumnInfo{Key: dataframe.ColKey(cm.Key).Copy(), Kind: cm.Kind})
				}
				out[i].Bytes += int64(cm.Length)
			}
		}
		return out
	}
	for _, seg := range segs {
		info.Profiles += seg.header.NProfiles
		segBytes := segPreludeLen + seg.dataLen
		if seg.owned {
			// A segment file is its magic and exactly one segment
			// record, which parsing checked ends at the file's end.
			segBytes = seg.dataOff + seg.dataLen
			info.FileBytes += segBytes
		}
		info.SegmentList = append(info.SegmentList, SegmentInfo{
			Gen: seg.gen, Level: seg.level, Profiles: seg.header.NProfiles,
			Bytes: segBytes, File: seg.fileName(),
		})
		if fm := seg.header.frame(framePerf); fm != nil {
			info.PerfRows += fm.NRows
		}
	}
	info.Nodes = sn.tree.Len()
	info.PerfColumns = sumCols(framePerf)
	info.MetaColumns = sumCols(frameMeta_)
	info.CacheHits, info.CacheMisses, info.CacheBytes, info.CacheEntries = s.cache.stats()
	return info
}
