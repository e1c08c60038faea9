package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/core"
)

// ManifestName is the manifest file inside a directory store.
const ManifestName = "MANIFEST.json"

// manifest is the directory store's segment index: which segment files
// are live, in what logical order, at what LSM level, and under which
// generation stamps. Every mutation (append, compaction) writes a new
// manifest atomically (tmp + fsync + rename + dir fsync), so a crash
// leaves either the old or the new segment set — never a half state.
// Orphaned segment files not named by the manifest are ignored on open
// and deleted lazily.
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

// openDir opens a directory store: the manifest names the live segment
// files; each is a single-segment store file opened read-write (so the
// compactor can fsync) or read-only as permissions allow.
func openDir(dir string, opts Options) (*Store, error) {
	m, err := readManifest(dir)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	s := newStore(dir, opts)
	s.dir = true
	s.profileLevel = m.ProfileLevel
	s.nextSegGen = m.NextGen
	s.contentGen = m.ContentGen
	s.gen = m.ContentGen // layout starts where content is; moves independently after
	for _, ms := range m.Segments {
		path := filepath.Join(dir, ms.File)
		f, err := os.Open(path)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("store: open %s: segment %s: %w", dir, ms.File, err)
		}
		segs, err := parseSegments(f)
		if err != nil {
			f.Close()
			s.Close()
			return nil, fmt.Errorf("store: open %s: segment %s: %w", dir, ms.File, err)
		}
		if len(segs) != 1 {
			f.Close()
			s.Close()
			return nil, fmt.Errorf("store: open %s: segment %s holds %d segments, want 1", dir, ms.File, len(segs))
		}
		sg := segs[0]
		if sg.header.ProfileLevel != m.ProfileLevel {
			f.Close()
			s.Close()
			return nil, fmt.Errorf("store: open %s: segment %s uses profile level %q, manifest says %q",
				dir, ms.File, sg.header.ProfileLevel, m.ProfileLevel)
		}
		sg.gen = ms.Gen
		sg.level = ms.Level
		sg.file = path
		sg.owned = true
		s.segs = append(s.segs, sg)
	}
	s.sweepOrphans(m)
	logEvent("store open", "path", dir, "segments", len(s.segs), "dir", true)
	return s, nil
}

// sweepOrphans deletes segment files in the directory that the manifest
// does not name — leftovers of a crash between segment write and
// manifest commit, or of a compaction that retired them.
func (s *Store) sweepOrphans(m manifest) {
	live := map[string]bool{}
	for _, ms := range m.Segments {
		live[ms.File] = true
	}
	entries, err := os.ReadDir(s.path)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || live[name] {
			continue
		}
		if matched, _ := filepath.Match("seg-*.tks", name); matched {
			os.Remove(filepath.Join(s.path, name))
			logEvent("store sweep orphan", "path", s.path, "file", name)
		}
	}
}

// currentManifest builds the manifest matching the in-memory segment
// set. Caller holds s.mu.
func (s *Store) currentManifestLocked() manifest {
	m := manifest{
		Version:      1,
		ProfileLevel: s.profileLevel,
		NextGen:      s.nextSegGen,
		ContentGen:   s.contentGen,
	}
	for _, sg := range s.segs {
		m.Segments = append(m.Segments, manifestSeg{
			File: filepath.Base(sg.file), Level: sg.level, Gen: sg.gen,
		})
	}
	return m
}

// writeSegmentFile writes one segment record as a standalone store file
// and fsyncs it, returning the opened handle.
func writeSegmentFile(path string, rec []byte) (*os.File, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write([]byte(FileMagic)); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	if _, err := f.Write(rec); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return f, nil
}

// appendSegmentDir commits rec as a new segment file + manifest update.
func (s *Store) appendSegmentDir(rec []byte, nProfiles, level int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	gen := s.nextSegGen
	path := filepath.Join(s.path, segFileName(gen))
	f, err := writeSegmentFile(path, rec)
	if err != nil {
		return fmt.Errorf("store: %s: append: %w", s.path, err)
	}
	segs, err := parseSegments(f)
	if err != nil || len(segs) != 1 {
		f.Close()
		os.Remove(path)
		if err == nil {
			err = fmt.Errorf("wrote %d segments, want 1", len(segs))
		}
		return fmt.Errorf("store: %s: append: %w", s.path, err)
	}
	sg := segs[0]
	sg.gen = gen
	sg.level = level
	sg.file = path
	sg.owned = true
	s.segs = append(s.segs, sg)
	s.nextSegGen++
	s.gen++
	s.contentGen++
	if err := writeManifest(s.path, s.currentManifestLocked()); err != nil {
		// Roll back the in-memory view; the orphaned file is swept later.
		s.segs = s.segs[:len(s.segs)-1]
		s.nextSegGen--
		s.gen--
		s.contentGen--
		f.Close()
		os.Remove(path)
		return fmt.Errorf("store: %s: append: %w", s.path, err)
	}
	s.genGauge.Set(s.gen)
	logEvent("store append", "path", s.path,
		"profiles", nProfiles, "generation", s.gen, "segment_gen", gen, "bytes", int64(len(rec)))
	return nil
}

// CanCompact reports whether the store supports in-place segment
// replacement (directory layout, writable).
func (s *Store) CanCompact() bool { return s.dir && !s.readOnly }

// ReplaceSegments atomically swaps the live segments stamped gens for a
// single new segment holding merged at level. The compactor's commit:
// gens must form a contiguous run of the current layout order (logical
// arrival order is position-dependent — replacing a non-contiguous
// subset would reorder profiles), and merged must hold exactly the
// replaced segments' profiles. The layout generation bumps but the
// content generation does NOT — the store's logical contents are
// unchanged, so content-stamped response caches stay valid and Refresh
// hands resident thickets back as they are. Retired segments' files are deleted once the last
// pinned reader drains.
func (s *Store) ReplaceSegments(gens []int64, merged *core.Thicket, level int) error {
	if !s.CanCompact() {
		return fmt.Errorf("store: %s: not a writable directory store", s.path)
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

	s.mu.Lock()
	defer s.mu.Unlock()
	pos := map[int64]int{}
	for i, sg := range s.segs {
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
		wantProfiles += s.segs[i].header.NProfiles
	}
	if got := merged.NumProfiles(); got != wantProfiles {
		return fmt.Errorf("store: %s: replace: merged thicket has %d profiles, replaced segments hold %d", s.path, got, wantProfiles)
	}

	gen := s.nextSegGen
	path := filepath.Join(s.path, segFileName(gen))
	f, err := writeSegmentFile(path, rec)
	if err != nil {
		return fmt.Errorf("store: %s: replace: %w", s.path, err)
	}
	parsed, err := parseSegments(f)
	if err != nil || len(parsed) != 1 {
		f.Close()
		os.Remove(path)
		if err == nil {
			err = fmt.Errorf("wrote %d segments, want 1", len(parsed))
		}
		return fmt.Errorf("store: %s: replace: %w", s.path, err)
	}
	sg := parsed[0]
	sg.gen = gen
	sg.level = level
	sg.file = path
	sg.owned = true

	old := s.segs
	retired := make([]*segment, 0, len(idx))
	next := make([]*segment, 0, len(old)-len(idx)+1)
	next = append(next, old[:idx[0]]...)
	next = append(next, sg)
	for _, i := range idx {
		retired = append(retired, old[i])
	}
	next = append(next, old[idx[len(idx)-1]+1:]...)

	s.segs = next
	s.nextSegGen++
	s.gen++ // layout changed; content did not
	if err := writeManifest(s.path, s.currentManifestLocked()); err != nil {
		s.segs = old
		s.nextSegGen--
		s.gen--
		f.Close()
		os.Remove(path)
		return fmt.Errorf("store: %s: replace: %w", s.path, err)
	}
	s.genGauge.Set(s.gen)
	for _, r := range retired {
		s.cache.dropSegment(r.gen)
		r.retire(true)
	}
	logEvent("store compact", "path", s.path,
		"merged", len(retired), "segment_gen", gen, "level", level,
		"profiles", wantProfiles, "generation", s.gen)
	return nil
}
