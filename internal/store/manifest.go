package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// ManifestName is the manifest file inside a directory store.
const ManifestName = "MANIFEST.json"

// manifest is the directory store's segment index: which segment files
// are live, in what logical order, at what LSM level, and under which
// generation stamps. Every mutation (append, compaction) writes a new
// manifest atomically (tmp + fsync + rename + dir fsync), so a crash
// leaves either the old or the new segment set — never a half state.
// Each entry names its own generation's file, segFileName(gen), inside
// the directory. Orphaned segment files not named by the manifest are
// ignored on open, and those below next_gen are deleted (sweepOrphans).
type manifest struct {
	Version      int           `json:"version"`
	ProfileLevel string        `json:"profile_level"`
	NextGen      int64         `json:"next_gen"`
	ContentGen   int64         `json:"content_gen"`
	Segments     []manifestSeg `json:"segments"`
}

type manifestSeg struct {
	File  string `json:"file"`
	Level int    `json:"level"`
	Gen   int64  `json:"gen"`
}

func segFileName(gen int64) string { return fmt.Sprintf("seg-%06d.tks", gen) }

// writeManifest atomically replaces dir's manifest.
func writeManifest(dir string, m manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	tmp := filepath.Join(dir, ManifestName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, ManifestName)); err != nil {
		return err
	}
	return syncDir(dir)
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

func readManifest(dir string) (manifest, error) {
	var m manifest
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("parsing %s: %w", ManifestName, err)
	}
	if m.Version != 1 {
		return m, fmt.Errorf("%s: unsupported manifest version %d", ManifestName, m.Version)
	}
	seen := map[int64]bool{}
	for _, ms := range m.Segments {
		if want := segFileName(ms.Gen); ms.File != want {
			return m, fmt.Errorf("%s: segment generation %d names file %q, want %q", ManifestName, ms.Gen, ms.File, want)
		}
		if seen[ms.Gen] {
			return m, fmt.Errorf("%s: duplicate segment generation %d", ManifestName, ms.Gen)
		}
		seen[ms.Gen] = true
		if ms.Gen >= m.NextGen {
			return m, fmt.Errorf("%s: segment generation %d >= next_gen %d", ManifestName, ms.Gen, m.NextGen)
		}
	}
	return m, nil
}

// InitDir creates an empty directory store at dir: a manifest naming no
// segments, pinned to profileLevel. Unlike Create, an empty store is
// legal in directory mode — it is the natural starting state of a
// streaming ingest target. Fails if dir already holds a manifest.
func InitDir(dir, profileLevel string) error {
	if profileLevel == "" {
		profileLevel = core.ProfileLevel
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: init %s: %w", dir, err)
	}
	if _, err := os.Stat(filepath.Join(dir, ManifestName)); err == nil {
		return fmt.Errorf("store: init %s: manifest already exists", dir)
	}
	m := manifest{Version: 1, ProfileLevel: profileLevel, NextGen: 1}
	if err := writeManifest(dir, m); err != nil {
		return fmt.Errorf("store: init %s: %w", dir, err)
	}
	logEvent("store init dir", "path", dir, "profile_level", profileLevel)
	return nil
}

// CreateDir creates a directory store at dir holding th as its first
// segment (level 1 — it is batch-built, hence sorted the way compaction
// sorts).
func CreateDir(dir string, th *core.Thicket) error {
	if err := InitDir(dir, th.ProfileLevelName()); err != nil {
		return err
	}
	s, err := Open(dir)
	if err != nil {
		return err
	}
	defer s.Close()
	return s.AppendSegment(th, 1)
}

// openAttempts bounds how often openDir reads the manifest. A
// compaction in another Store can commit a new manifest and delete a
// segment it retired between this open's manifest read and its open of
// that segment's file; the re-read manifest no longer names it. A file
// still missing after the last attempt is a broken store.
const openAttempts = 3

// openDir opens a directory store: the manifest names the live segment
// files, each a single-segment store file opened read-only.
func openDir(dir string, opts Options) (*Store, error) {
	for attempt := 1; ; attempt++ {
		m, err := readManifest(dir)
		if err != nil {
			return nil, fmt.Errorf("store: open %s: %w", dir, err)
		}
		segs, err := openSegments(dir, m)
		if errors.Is(err, fs.ErrNotExist) && attempt < openAttempts {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("store: open %s: %w", dir, err)
		}
		s := newStore(dir, opts, telemetry.Default)
		s.dir = true
		s.profileLevel = m.ProfileLevel
		s.nextSegGen = m.NextGen
		// The layout starts where content is; the two move independently after.
		s.publish(&Snapshot{segs: segs, gen: m.ContentGen, contentGen: m.ContentGen, tree: headerUnion(nil, segs)})
		s.sweepOrphans(m)
		logEvent("store open", "path", dir, "segments", len(segs), "dir", true)
		return s, nil
	}
}

// openSegments opens and parses the segment files m names, in its
// order. On failure it closes what it opened.
func openSegments(dir string, m manifest) (segs []*segment, err error) {
	defer func() {
		if err != nil {
			for _, sg := range segs {
				sg.closeFile()
			}
		}
	}()
	for _, ms := range m.Segments {
		path := filepath.Join(dir, ms.File)
		f, err := os.Open(path)
		if err != nil {
			return segs, fmt.Errorf("segment %s: %w", ms.File, err)
		}
		parsed, err := parseFile(f)
		if err == nil && len(parsed) != 1 {
			err = fmt.Errorf("holds %d segments, want 1", len(parsed))
		}
		if err == nil && parsed[0].header.ProfileLevel != m.ProfileLevel {
			err = fmt.Errorf("uses profile level %q, manifest says %q", parsed[0].header.ProfileLevel, m.ProfileLevel)
		}
		if err != nil {
			f.Close()
			return segs, fmt.Errorf("segment %s: %w", ms.File, err)
		}
		sg := parsed[0]
		sg.gen, sg.level, sg.file, sg.owned = ms.Gen, ms.Level, path, true
		segs = append(segs, sg)
	}
	return segs, nil
}

// sweepOrphans deletes the segment files below the manifest's next_gen
// that it does not name: segments a compaction retired, whose deletion
// a crash cut short. A file at or past next_gen is left alone: a writer
// (another Store, in this process or another) writes its new segment
// there before its manifest names it. If the writer died first, its
// store's next write at that generation overwrites the file.
func (s *Store) sweepOrphans(m manifest) {
	live := map[int64]bool{}
	for _, ms := range m.Segments {
		live[ms.Gen] = true
	}
	entries, err := os.ReadDir(s.path)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		var gen int64
		if _, err := fmt.Sscanf(name, "seg-%d.tks", &gen); err != nil || name != segFileName(gen) || e.IsDir() {
			continue // not a segment file
		}
		if live[gen] || gen >= m.NextGen {
			continue
		}
		os.Remove(filepath.Join(s.path, name))
		logEvent("store sweep orphan", "path", s.path, "file", name)
	}
}

// manifestFor builds the manifest naming segs as the layout, with the
// given next_gen and content generation.
func (s *Store) manifestFor(segs []*segment, nextGen, contentGen int64) manifest {
	m := manifest{
		Version:      1,
		ProfileLevel: s.profileLevel,
		NextGen:      nextGen,
		ContentGen:   contentGen,
	}
	for _, sg := range segs {
		m.Segments = append(m.Segments, manifestSeg{
			File: filepath.Base(sg.file), Level: sg.level, Gen: sg.gen,
		})
	}
	return m
}

// writeSegmentFile writes one segment record as a standalone store file
// and fsyncs it, returning the opened handle. On failure it removes the
// file.
func writeSegmentFile(path string, rec []byte) (*os.File, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	_, err = f.Write([]byte(FileMagic))
	if err == nil {
		_, err = f.Write(rec)
	}
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return f, nil
}

// commitSegment is the one commit of a directory store: it writes rec
// as segment file seg-<next_gen>.tks, fsyncs and parses it, and swaps in
// a manifest whose layout splices it in place of the n segments from
// position at (n = 0 appends it: at is the tail), with next_gen and the
// layout generation bumped — and the content generation for an append.
// Readers go on meanwhile with the current view; only once the manifest
// is durable does the commit publish the next view, whose union tree
// extends the current one's for an append and is rebuilt for a
// compaction. proven says the caller has checked that the new segment
// adds no profile the rest of the layout holds, so a held disjoint
// verdict is handed to the next view. On failure nothing has been
// published: it removes the file, and the next commit writes this
// generation again, over anything left behind. It returns the new
// segment's generation and the n segments it replaced. Caller holds
// writeMu, which every writer of the layout holds.
func (s *Store) commitSegment(rec []byte, level, at, n int, proven bool) (gen int64, replaced []*segment, err error) {
	if s.closed {
		return 0, nil, errors.New("store closed")
	}
	cur := s.view.Load()
	gen = s.nextSegGen
	path := filepath.Join(s.path, segFileName(gen))
	f, err := writeSegmentFile(path, rec)
	if err != nil {
		return 0, nil, err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(path)
		}
	}()
	parsed, err := parseFile(f)
	if err == nil && len(parsed) != 1 {
		err = fmt.Errorf("wrote %d segments, want 1", len(parsed))
	}
	if err != nil {
		return 0, nil, err
	}
	sg := parsed[0]
	sg.gen, sg.level, sg.file, sg.owned = gen, level, path, true
	next := &Snapshot{segs: slices.Concat(cur.segs[:at], []*segment{sg}, cur.segs[at+n:]), gen: cur.gen + 1, contentGen: cur.contentGen}
	if n == 0 {
		next.contentGen++
		next.tree = headerUnion(cur.tree, []*segment{sg})
	} else {
		next.tree = headerUnion(nil, next.segs)
	}
	if err := writeManifest(s.path, s.manifestFor(next.segs, gen+1, next.contentGen)); err != nil {
		return 0, nil, err
	}
	if s.publishHook != nil {
		s.publishHook()
	}
	if proven && cur.disjoint.Load() == verdictHolds {
		next.disjoint.Store(verdictHolds)
	}
	s.nextSegGen = gen + 1
	s.publish(next)
	return gen, cur.segs[at : at+n], nil
}

// ReplaceSegments atomically swaps the live segments stamped gens for a
// single new segment holding merged at level. The compactor's commit:
// gens must form a contiguous run of the current layout order (logical
// arrival order is position-dependent — replacing a non-contiguous
// subset would reorder profiles), and merged must hold exactly the
// replaced segments' profiles. The layout generation bumps but the
// content generation does NOT — the store's logical contents are
// unchanged, so content-stamped response caches stay valid and Refresh
// hands resident thickets back as they are. Retired segments' files are
// deleted once the last view that names them is released.
func (s *Store) ReplaceSegments(gens []int64, merged *core.Thicket, level int) error {
	if !s.dir {
		return fmt.Errorf("store: %s: read-only: a single-file store is written once; compaction runs on directory stores", s.path)
	}
	if len(gens) < 1 {
		return fmt.Errorf("store: %s: replace: no segments named", s.path)
	}
	if got, want := merged.ProfileLevelName(), s.ProfileLevel(); got != want {
		return fmt.Errorf("store: %s: replace: merged thicket uses profile level %q, store uses %q", s.path, got, want)
	}
	rec, err := encodeSegment(merged)
	if err != nil {
		return fmt.Errorf("store: %s: replace: %w", s.path, err)
	}

	// Commits, and Close, hold writeMu: the layout read here is the one
	// this commit replaces into, and the compact event is logged before
	// the next commit.
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	segs := s.view.Load().segs
	pos := map[int64]int{}
	for i, sg := range segs {
		pos[sg.gen] = i
	}
	idx := make([]int, 0, len(gens))
	for _, g := range gens {
		i, ok := pos[g]
		if !ok {
			return fmt.Errorf("store: %s: replace: no live segment with generation %d", s.path, g)
		}
		idx = append(idx, i)
	}
	sort.Ints(idx)
	for k := 1; k < len(idx); k++ {
		if idx[k] == idx[k-1] {
			return fmt.Errorf("store: %s: replace: duplicate generation", s.path)
		}
		if idx[k] != idx[k-1]+1 {
			return fmt.Errorf("store: %s: replace: segments not contiguous in layout order", s.path)
		}
	}
	wantProfiles := 0
	for _, i := range idx {
		wantProfiles += segs[i].header.NProfiles
	}
	if got := merged.NumProfiles(); got != wantProfiles {
		return fmt.Errorf("store: %s: replace: merged thicket has %d profiles, replaced segments hold %d", s.path, got, wantProfiles)
	}

	// A compaction moves profiles but adds none.
	gen, retired, err := s.commitSegment(rec, level, idx[0], len(idx), true)
	if err != nil {
		return fmt.Errorf("store: %s: replace: %w", s.path, err)
	}
	for _, r := range retired {
		s.cache.dropSegment(r.gen)
		r.retire(true)
	}
	logEvent("store compact", "path", s.path,
		"merged", len(retired), "segment_gen", gen, "level", level,
		"profiles", wantProfiles, "generation", s.view.Load().gen)
	return nil
}
