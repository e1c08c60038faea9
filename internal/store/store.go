package store

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

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

// segment is one live segment: its parsed header, the file holding its
// data area, and its lifecycle state. Segments are immutable once
// scanned; compaction retires them, and a retired segment's file is
// closed (and, for directory stores, deleted) once the last pinned
// reader releases it.
type segment struct {
	header  segmentHeader
	dataOff int64
	dataLen int64

	gen   int64  // unique per-segment generation stamp within the store
	level int    // LSM level: 0 = fresh ingest, 1+ = compacted/sorted
	file  string // owning file path; "" when data lives in the store file
	f     *os.File
	owned bool // this segment owns f (directory stores)

	mu      sync.Mutex
	refs    int
	retired bool
	remove  bool // delete file on finalize (compacted away)
}

// acquire pins the segment for a reader.
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
	if sg.owned && sg.f != nil {
		sg.f.Close()
		if sg.remove && sg.file != "" {
			os.Remove(sg.file)
		}
	}
}

// Store is an open columnar ensemble store — either a single
// append-only file or a directory of segment files under a manifest
// (the streaming-ingest layout, which supports compaction). All methods
// are safe for concurrent use; reads go through positional I/O and a
// shared decoded-column LRU cache keyed by segment generation stamp.
type Store struct {
	path     string
	dir      bool     // directory (manifest) layout
	f        *os.File // single-file layout only
	readOnly bool

	appendMu sync.Mutex // serializes validate+commit of appends
	// profileKeys holds the EncodeKey of every stored profile-index
	// value — the duplicate-append check. Built on the first append,
	// extended after each committed one, and untouched by compaction,
	// which moves rows without changing them. Guarded by appendMu.
	profileKeys map[string]struct{}

	mu           sync.Mutex // guards segs, gens, manifest writes
	segs         []*segment
	gen          int64 // layout generation: bumps on append AND compaction
	contentGen   int64 // content generation: bumps on append only
	nextSegGen   int64 // allocator for per-segment stamps
	profileLevel string
	cache        *columnCache

	genGauge *telemetry.Gauge // mirrors gen into the registry
}

// Options configures Open.
type Options struct {
	// CacheBytes bounds the decoded-column LRU cache;
	// 0 selects DefaultCacheBytes, negative disables caching.
	CacheBytes int64
}

// Create writes a brand-new single-file, single-segment store holding
// th, creating parent directories. An existing file at path is
// truncated.
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
	readOnly := false
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		f, err = os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("store: open %s: %w", path, err)
		}
		readOnly = true
	}
	s := newStore(path, opts)
	s.f = f
	s.readOnly = readOnly
	if err := s.scan(); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: open %s: %w", path, err)
	}
	logEvent("store open", "path", path,
		"segments", len(s.segs), "read_only", readOnly)
	return s, nil
}

func newStore(path string, opts Options) *Store {
	cacheBytes := opts.CacheBytes
	if cacheBytes == 0 {
		cacheBytes = DefaultCacheBytes
	}
	return &Store{
		path:  path,
		cache: newColumnCache(cacheBytes, path),
		genGauge: telemetry.Default.Gauge("thicket_store_generation",
			"Store layout generation (bumps on every append or compaction).", "store", path),
	}
}

// parseSegments scans one file's segment records starting after the
// file magic, returning parsed headers with their data offsets.
func parseSegments(f *os.File) ([]*segment, error) {
	magic := make([]byte, len(FileMagic))
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, int64(len(FileMagic))), magic); err != nil {
		return nil, fmt.Errorf("reading magic: %w", err)
	}
	if string(magic) != FileMagic {
		return nil, fmt.Errorf("bad magic %q (want %q)", magic, FileMagic)
	}
	var segs []*segment
	off := int64(len(FileMagic))
	size, err := f.Stat()
	if err != nil {
		return nil, err
	}
	for off < size.Size() {
		var prelude [segPreludeLen]byte
		if _, err := f.ReadAt(prelude[:], off); err != nil {
			return nil, fmt.Errorf("segment %d prelude at offset %d: %w", len(segs), off, err)
		}
		if string(prelude[:4]) != segMagic {
			return nil, fmt.Errorf("segment %d at offset %d: bad segment magic %q", len(segs), off, prelude[:4])
		}
		headerLen := binary.LittleEndian.Uint32(prelude[4:8])
		headerCRC := binary.LittleEndian.Uint32(prelude[8:12])
		dataLen := binary.LittleEndian.Uint64(prelude[12:20])
		if int64(headerLen) > size.Size()-off-segPreludeLen {
			return nil, fmt.Errorf("segment %d: header length %d exceeds file", len(segs), headerLen)
		}
		hdrBytes := make([]byte, headerLen)
		if _, err := f.ReadAt(hdrBytes, off+segPreludeLen); err != nil {
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
		if dataOff+int64(dataLen) > size.Size() {
			return nil, fmt.Errorf("segment %d: data area [%d, %d) exceeds file size %d", len(segs), dataOff, dataOff+int64(dataLen), size.Size())
		}
		for _, fm := range hdr.Frames {
			for _, cm := range append(append([]columnMeta(nil), fm.Levels...), fm.Cols...) {
				if cm.Offset+cm.Length > dataLen {
					return nil, fmt.Errorf("segment %d: block %v overruns data area", len(segs), cm.Key)
				}
			}
		}
		segs = append(segs, &segment{
			header: hdr, dataOff: dataOff, dataLen: int64(dataLen), f: f,
		})
		off = dataOff + int64(dataLen)
	}
	return segs, nil
}

// scan (re)parses a single-file store's segment headers. Per-segment
// generation stamps are positional: a single-file store only ever grows
// at the end, so position is a stable identity.
func (s *Store) scan() error {
	segs, err := parseSegments(s.f)
	if err != nil {
		return err
	}
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
	s.mu.Lock()
	s.segs = segs
	s.nextSegGen = int64(len(segs) + 1)
	s.profileLevel = first
	s.mu.Unlock()
	return nil
}

// Close releases every underlying file.
func (s *Store) Close() error {
	var err error
	if s.f != nil {
		err = s.f.Close()
	}
	s.mu.Lock()
	segs := s.segs
	s.segs = nil
	s.mu.Unlock()
	for _, sg := range segs {
		if sg.owned && sg.f != nil {
			if cerr := sg.f.Close(); err == nil {
				err = cerr
			}
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
func (s *Store) ProfileLevel() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.profileLevel
}

// NumSegments reports the number of live segments.
func (s *Store) NumSegments() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.segs)
}

// Generation reports the layout generation: it changes whenever the
// segment set changes — every append AND every compaction. Consumers
// holding a decoded view (thicketd's resident thicket) Refresh it when
// it moves.
func (s *Store) Generation() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// ContentGeneration reports the content generation: it changes only
// when the store's logical contents change (appends), NOT when
// compaction reorganizes the same rows into fewer segments. Caches of
// query *answers* stamp entries with this; caches of *layout* (decoded
// columns) key by per-segment stamps instead.
func (s *Store) ContentGeneration() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.contentGen
}

// Generations lists the live segments' generation stamps in layout
// (logical arrival) order.
func (s *Store) Generations() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int64, len(s.segs))
	for i, sg := range s.segs {
		out[i] = sg.gen
	}
	return out
}

// Segments summarizes the live segments (generation, level, profile
// count) in layout order from headers alone — the compactor's planning
// input. Byte sizes are the in-file record sizes; Info() refines them.
func (s *Store) Segments() []SegmentInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SegmentInfo, len(s.segs))
	for i, sg := range s.segs {
		out[i] = SegmentInfo{
			Gen: sg.gen, Level: sg.level, Profiles: sg.header.NProfiles,
			Bytes: segPreludeLen + sg.dataLen, File: filepath.Base(sg.file),
		}
	}
	return out
}

// pin snapshots the live segment set and pins every member against
// compaction-time finalization. Callers must invoke release when done.
func (s *Store) pin() (segs []*segment, release func()) {
	segs, _, _, release = s.pinAt()
	return segs, release
}

// pinAt is pin that also reads the layout and content generations under
// the same lock, so the stamps name exactly the pinned segment set.
func (s *Store) pinAt() (segs []*segment, gen, contentGen int64, release func()) {
	s.mu.Lock()
	segs = append([]*segment(nil), s.segs...)
	for _, sg := range segs {
		sg.acquire()
	}
	gen, contentGen = s.gen, s.contentGen
	s.mu.Unlock()
	return segs, gen, contentGen, func() {
		for _, sg := range segs {
			sg.release()
		}
	}
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
	if _, err := seg.f.ReadAt(buf, seg.dataOff+int64(cm.Offset)); err != nil {
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

// loadSegment materializes one segment as a thicket. keepPerf projects
// the performance-data columns; withStats controls whether the stored
// stats frame is decoded (a projection gets the empty stats table).
func (s *Store) loadSegment(ctx context.Context, parent *telemetry.Span, seg *segment, keepPerf func(dataframe.ColKey) bool, withStats bool) (*core.Thicket, error) {
	sp := parent.StartChild("store.loadSegment")
	if sp != nil {
		sp.SetAttr("segment", fmt.Sprint(seg.gen))
		defer sp.End()
	}
	tree := calltree.New()
	for i, p := range seg.header.TreePaths {
		if _, err := tree.AddPath(p); err != nil {
			return nil, fmt.Errorf("store: %s: segment g%d tree path %d: %w", s.path, seg.gen, i, err)
		}
	}
	perf, err := s.loadFrame(ctx, sp, seg, framePerf, keepPerf)
	if err != nil {
		return nil, err
	}
	meta, err := s.loadFrame(ctx, sp, seg, frameMeta_, nil)
	if err != nil {
		return nil, err
	}
	var stats *dataframe.Frame
	if withStats {
		stats, err = s.loadFrame(ctx, sp, seg, frameStats, nil)
		if err != nil {
			return nil, err
		}
	}
	return core.FromParts(tree, perf, meta, stats, seg.header.ProfileLevel)
}

// Load materializes the whole store as one thicket. A single-segment
// store reproduces the stored thicket exactly — frames, tree, stats,
// and profile level, bit for bit. A multi-segment store concatenates
// the segments over the union call tree (core.ConcatProfiles
// semantics); aggregated statistics reset to empty since stored stats
// no longer cover the appended profiles.
func (s *Store) Load() (*core.Thicket, error) {
	return s.load(context.Background(), nil)
}

// LoadCtx is Load with a cancellation context: the load checks ctx at
// every block boundary and reports progress to the context's
// ScanObserver, if any.
func (s *Store) LoadCtx(ctx context.Context) (*core.Thicket, error) {
	return s.load(ctx, nil)
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
	segs, release := s.pin()
	available := map[string]bool{}
	for _, seg := range segs {
		if fm := seg.header.frame(framePerf); fm != nil {
			for _, cm := range fm.Cols {
				available[dataframe.ColKey(cm.Key).String()] = true
			}
		}
	}
	release()
	for _, k := range keys {
		if !available[k.String()] {
			return nil, fmt.Errorf("store: %s: no perf column %v in any segment", s.path, k)
		}
	}
	return s.load(context.Background(), func(k dataframe.ColKey) bool { return want[k.String()] })
}

func (s *Store) load(ctx context.Context, keepPerf func(dataframe.ColKey) bool) (*core.Thicket, error) {
	sp := telemetry.StartOp("store.Load")
	defer sp.End()
	segs, release := s.pin()
	defer release()
	if sp != nil {
		sp.SetAttr("path", s.path)
		sp.SetAttr("segments", fmt.Sprint(len(segs)))
	}
	return s.loadSegments(ctx, sp, segs, keepPerf)
}

// loadSegments materializes pinned segments as one thicket: Load's
// semantics over an explicit segment set.
func (s *Store) loadSegments(ctx context.Context, sp *telemetry.Span, segs []*segment, keepPerf func(dataframe.ColKey) bool) (*core.Thicket, error) {
	if len(segs) == 0 {
		return nil, fmt.Errorf("store: %s: empty store", s.path)
	}
	withStats := len(segs) == 1 && keepPerf == nil
	thickets := make([]*core.Thicket, len(segs))
	for i, seg := range segs {
		th, err := s.loadSegment(ctx, sp, seg, keepPerf, withStats)
		if err != nil {
			return nil, err
		}
		thickets[i] = th
	}
	if len(thickets) == 1 {
		return thickets[0], nil
	}
	th, err := core.ConcatProfiles(thickets)
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", s.path, err)
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
// last metadata key, then decodes only the profiles after it: whole new
// segments, plus the unseen tail rows of a segment the compactor merged
// across that point. When the prefix check fails — prev came from
// elsewhere — it loads the whole store (mode RefreshFull). gen and
// contentGen are the generations of exactly the segment set the result
// reflects, read under the lock that pinned it. Refresh runs under the
// store.Load span, with its mode as an attribute.
func (s *Store) Refresh(prev *core.Thicket) (th *core.Thicket, gen, contentGen int64, mode string, err error) {
	sp := telemetry.StartOp("store.Load")
	defer sp.End()
	segs, gen, contentGen, release := s.pinAt()
	defer release()
	if sp != nil {
		sp.SetAttr("path", s.path)
		sp.SetAttr("segments", fmt.Sprint(len(segs)))
	}
	ctx := context.Background()
	tail, ok, err := s.tailAfter(ctx, sp, segs, prev)
	if err != nil {
		return nil, gen, contentGen, RefreshDelta, err
	}
	mode = RefreshDelta
	switch {
	case !ok:
		mode = RefreshFull
		th, err = s.loadSegments(ctx, sp, segs, nil)
	case len(tail) == 0:
		th = prev
	default:
		if th, err = core.ConcatProfiles(append([]*core.Thicket{prev}, tail...)); err != nil {
			err = fmt.Errorf("store: %s: %w", s.path, err)
		}
	}
	sp.SetAttr("mode", mode)
	return th, gen, contentGen, mode, err
}

// tailAfter decodes the profiles segs hold beyond prev's, in arrival
// order. ok is false when prev is not a prefix of segs.
func (s *Store) tailAfter(ctx context.Context, sp *telemetry.Span, segs []*segment, prev *core.Thicket) (tail []*core.Thicket, ok bool, err error) {
	if prev == nil || prev.NumProfiles() == 0 || prev.ProfileLevelName() != s.ProfileLevel() {
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
	profs, err := s.profileColumn(ctx, sp, segs[k])
	if err != nil {
		return nil, false, err
	}
	last := prev.Metadata.Index().Level(0).At(n - 1)
	if row := n - 1 - start; row >= profs.Len() ||
		dataframe.EncodeKey([]dataframe.Value{profs.At(row)}) != dataframe.EncodeKey([]dataframe.Value{last}) {
		return nil, false, nil
	}
	if seen := n - start; seen < segs[k].header.NProfiles {
		th, err := s.loadSegment(ctx, sp, segs[k], nil, false)
		if err != nil {
			return nil, false, err
		}
		// The segment's tree may hold paths only the seen rows use; prev
		// already has them, so the union tree comes out the same.
		tail = append(tail, th.FilterMetadata(func(m core.MetaRow) bool { return m.Pos() >= seen }))
	}
	for _, seg := range segs[k+1:] {
		th, err := s.loadSegment(ctx, sp, seg, nil, false)
		if err != nil {
			return nil, false, err
		}
		tail = append(tail, th)
	}
	return tail, true, nil
}

// profileColumn decodes one segment's profile-index level of the
// metadata frame: a single block, served from the column cache when
// warm.
func (s *Store) profileColumn(ctx context.Context, sp *telemetry.Span, seg *segment) (*dataframe.Series, error) {
	if fm := seg.header.frame(frameMeta_); fm != nil {
		for l, cm := range fm.Levels {
			if name := cm.Key[len(cm.Key)-1]; name == seg.header.ProfileLevel {
				return s.readBlock(ctx, sp, seg, frameMeta_, l, cm, name)
			}
		}
	}
	return nil, fmt.Errorf("store: %s: segment g%d has no metadata level %q", s.path, seg.gen, seg.header.ProfileLevel)
}

// LoadSegmentThicket materializes the single segment stamped gen — the
// compactor's read path. Stats come back empty (compaction re-derives
// nothing it cannot cover).
func (s *Store) LoadSegmentThicket(gen int64) (*core.Thicket, error) {
	segs, release := s.pin()
	defer release()
	for _, seg := range segs {
		if seg.gen == gen {
			return s.loadSegment(context.Background(), nil, seg, nil, false)
		}
	}
	return nil, fmt.Errorf("store: %s: no live segment with generation %d", s.path, gen)
}

// Metadata loads only the metadata frames (concatenated across
// segments) without touching performance data — the fast path for
// profile listing and filtering.
func (s *Store) Metadata() (*dataframe.Frame, error) {
	sp := telemetry.StartOp("store.Metadata")
	sp.SetAttr("path", s.path)
	defer sp.End()
	segs, release := s.pin()
	defer release()
	if len(segs) == 0 {
		return nil, fmt.Errorf("store: %s: empty store", s.path)
	}
	frames := make([]*dataframe.Frame, len(segs))
	for i, seg := range segs {
		f, err := s.loadFrame(context.Background(), sp, seg, frameMeta_, nil)
		if err != nil {
			return nil, err
		}
		frames[i] = f
	}
	if len(frames) == 1 {
		return frames[0], nil
	}
	out, err := dataframe.ConcatRowsOuter(frames...)
	if err != nil {
		return nil, fmt.Errorf("store: %s: metadata: %w", s.path, err)
	}
	return out, nil
}

// validateAppend checks th against the store's invariants: shared
// profile level, no reused profile-index values, and column kinds that
// agree with stored columns of the same key. Its cost is O(th) plus a
// header walk: stored profile keys come from profileKeys, built from
// the profile-index blocks on the first append only. Caller holds
// appendMu.
func (s *Store) validateAppend(th *core.Thicket) error {
	if s.readOnly {
		return fmt.Errorf("store: %s: opened read-only", s.path)
	}
	if got, want := th.ProfileLevelName(), s.ProfileLevel(); got != want {
		return fmt.Errorf("store: %s: appended thicket uses profile level %q, store uses %q", s.path, got, want)
	}
	segs, release := s.pin()
	defer release()
	kinds := map[string]string{}
	for _, seg := range segs {
		for _, fm := range seg.header.Frames {
			for _, cm := range fm.Cols {
				kinds[fm.Name+"\x00"+dataframe.ColKey(cm.Key).String()] = cm.Kind
			}
		}
	}
	for name, fr := range map[string]*dataframe.Frame{framePerf: th.PerfData, frameMeta_: th.Metadata} {
		for c := 0; c < fr.NCols(); c++ {
			k := name + "\x00" + fr.ColIndex().Key(c).String()
			if have, ok := kinds[k]; ok && have != fr.ColumnAt(c).Kind().String() {
				return fmt.Errorf("store: %s: column %v kind %s conflicts with stored kind %s",
					s.path, fr.ColIndex().Key(c), fr.ColumnAt(c).Kind(), have)
			}
		}
	}
	if s.profileKeys == nil {
		keys := map[string]struct{}{}
		for _, seg := range segs {
			profs, err := s.profileColumn(context.Background(), nil, seg)
			if err != nil {
				return err
			}
			for r := 0; r < profs.Len(); r++ {
				keys[dataframe.EncodeKey([]dataframe.Value{profs.At(r)})] = struct{}{}
			}
		}
		s.profileKeys = keys
	}
	for _, v := range th.Profiles() {
		if _, dup := s.profileKeys[dataframe.EncodeKey([]dataframe.Value{v})]; dup {
			return fmt.Errorf("store: %s: profile index %s already present", s.path, v)
		}
	}
	return nil
}

// Append writes th as a new level-0 segment at the store's tail.
// Existing blocks are untouched. The thicket must share the store's
// profile level, must not reuse existing profile-index values, and its
// column kinds must agree with stored columns of the same key.
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
	// Validation reads the live segment set (pin takes s.mu), so the
	// whole validate+commit sequence serializes on its own lock:
	// concurrent appends must not both pass the duplicate-profile check.
	s.appendMu.Lock()
	defer s.appendMu.Unlock()
	if err := s.validateAppend(th); err != nil {
		return err
	}
	rec, err := encodeSegment(th)
	if err != nil {
		return fmt.Errorf("store: %s: append: %w", s.path, err)
	}
	if s.dir {
		err = s.appendSegmentDir(rec, th.NumProfiles(), level)
	} else {
		err = s.appendSegmentFile(rec, th.NumProfiles(), level)
	}
	if err != nil {
		return err
	}
	for _, v := range th.Profiles() {
		s.profileKeys[dataframe.EncodeKey([]dataframe.Value{v})] = struct{}{}
	}
	return nil
}

// appendSegmentFile commits rec at the tail of a single-file store.
func (s *Store) appendSegmentFile(rec []byte, nProfiles, level int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("store: %s: append: %w", s.path, err)
	}
	if _, err := s.f.WriteAt(rec, st.Size()); err != nil {
		return fmt.Errorf("store: %s: append: %w", s.path, err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("store: %s: append: %w", s.path, err)
	}
	// Parse the freshly written segment into the in-memory view.
	hdrLen := binary.LittleEndian.Uint32(rec[4:8])
	dataLen := binary.LittleEndian.Uint64(rec[12:20])
	var hdr segmentHeader
	if err := json.Unmarshal(rec[segPreludeLen:segPreludeLen+int(hdrLen)], &hdr); err != nil {
		return fmt.Errorf("store: %s: append: %w", s.path, err)
	}
	s.segs = append(s.segs, &segment{
		header:  hdr,
		dataOff: st.Size() + segPreludeLen + int64(hdrLen),
		dataLen: int64(dataLen),
		gen:     s.nextSegGen,
		level:   level,
		f:       s.f,
	})
	s.nextSegGen++
	s.gen++
	s.contentGen++
	s.genGauge.Set(s.gen)
	logEvent("store append", "path", s.path,
		"profiles", nProfiles, "generation", s.gen, "bytes", int64(len(rec)))
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
	opts := core.Options{}
	if lvl := s.ProfileLevel(); lvl != core.ProfileLevel {
		opts.IndexBy = lvl
	}
	return core.FromProfiles(profiles, opts)
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

// Info reports the store's shape from headers alone.
func (s *Store) Info() Info {
	segs, release := s.pin()
	defer release()
	info := Info{
		Path:         s.path,
		Segments:     len(segs),
		ProfileLevel: s.ProfileLevel(),
		Generation:   s.Generation(),
		ContentGen:   s.ContentGeneration(),
	}
	if s.f != nil {
		if st, err := s.f.Stat(); err == nil {
			info.FileBytes = st.Size()
		}
	}
	tree := calltree.New()
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
			if st, err := seg.f.Stat(); err == nil {
				segBytes = st.Size()
			}
			info.FileBytes += segBytes
		}
		info.SegmentList = append(info.SegmentList, SegmentInfo{
			Gen: seg.gen, Level: seg.level, Profiles: seg.header.NProfiles,
			Bytes: segBytes, File: filepath.Base(seg.file),
		})
		if fm := seg.header.frame(framePerf); fm != nil {
			info.PerfRows += fm.NRows
		}
		for _, p := range seg.header.TreePaths {
			tree.AddPath(p)
		}
	}
	info.Nodes = tree.Len()
	info.PerfColumns = sumCols(framePerf)
	info.MetaColumns = sumCols(frameMeta_)
	info.CacheHits, info.CacheMisses, info.CacheBytes, info.CacheEntries = s.cache.stats()
	return info
}
