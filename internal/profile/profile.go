// Package profile defines the on-disk performance-profile format consumed
// by thicket objects. A profile is what one instrumented run produces —
// the role Caliper's .cali files (plus Adiak metadata) play in the paper:
// a call tree, per-node performance metrics, and run metadata such as
// build settings and execution context.
package profile

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/calltree"
	"repro/internal/dataframe"
	"repro/internal/parallel"
)

// FormatName identifies the serialization format.
const FormatName = "thicket-profile"

// FormatVersion is the current serialization version.
const FormatVersion = 1

// Profile holds one run's call tree, per-node metrics, and metadata.
type Profile struct {
	meta        map[string]dataframe.Value
	metaOrder   []string
	tree        *calltree.Tree
	metrics     map[string]map[string]dataframe.Value // node key -> metric -> value
	metricOrder []string
	metricSeen  map[string]bool
}

// New returns an empty profile.
func New() *Profile {
	return &Profile{
		meta:       make(map[string]dataframe.Value),
		tree:       calltree.New(),
		metrics:    make(map[string]map[string]dataframe.Value),
		metricSeen: make(map[string]bool),
	}
}

// SetMeta records a metadata attribute (build setting or execution
// context). Later writes overwrite earlier ones.
func (p *Profile) SetMeta(key string, v dataframe.Value) {
	if _, ok := p.meta[key]; !ok {
		p.metaOrder = append(p.metaOrder, key)
	}
	p.meta[key] = v
}

// Meta returns the metadata value for key and whether it exists.
func (p *Profile) Meta(key string) (dataframe.Value, bool) {
	v, ok := p.meta[key]
	return v, ok
}

// MetaKeys returns metadata keys in insertion order.
func (p *Profile) MetaKeys() []string { return append([]string(nil), p.metaOrder...) }

// Tree returns the profile's call tree (shared; treat as read-only).
func (p *Profile) Tree() *calltree.Tree { return p.tree }

// MetricNames returns the metric names in first-appearance order.
func (p *Profile) MetricNames() []string { return append([]string(nil), p.metricOrder...) }

// AddSample records metric values for the call-tree node at path,
// creating the node (and ancestors) if needed. Re-adding a metric for the
// same node overwrites it.
func (p *Profile) AddSample(path []string, metrics map[string]dataframe.Value) error {
	return p.adoptSample(path, maps.Clone(metrics))
}

// adoptSample is AddSample for a map the profile may keep: it becomes the
// node's row unless the node has one already. Metric names new to the
// profile join the first-appearance order sorted among themselves.
func (p *Profile) adoptSample(path []string, metrics map[string]dataframe.Value) error {
	node, err := p.tree.AddPath(path)
	if err != nil {
		return err
	}
	if row, ok := p.metrics[node.Key()]; ok {
		for name, v := range metrics {
			row[name] = v
		}
	} else {
		if metrics == nil {
			metrics = make(map[string]dataframe.Value)
		}
		p.metrics[node.Key()] = metrics
	}
	var fresh []string
	for name := range metrics {
		if !p.metricSeen[name] {
			fresh = append(fresh, name)
		}
	}
	sort.Strings(fresh)
	for _, name := range fresh {
		p.metricSeen[name] = true
		p.metricOrder = append(p.metricOrder, name)
	}
	return nil
}

// Metric returns the value of a metric at the node with the given key.
func (p *Profile) Metric(nodeKey, metric string) (dataframe.Value, bool) {
	row, ok := p.metrics[nodeKey]
	if !ok {
		return dataframe.Value{}, false
	}
	v, ok := row[metric]
	return v, ok
}

// NodeMetrics returns a copy of all metrics recorded at the node key.
func (p *Profile) NodeMetrics(nodeKey string) map[string]dataframe.Value {
	row := p.metrics[nodeKey]
	out := make(map[string]dataframe.Value, len(row))
	for k, v := range row {
		out[k] = v
	}
	return out
}

// MetricRow returns the metrics recorded at the node key, or nil (shared;
// treat as read-only).
func (p *Profile) MetricRow(nodeKey string) map[string]dataframe.Value { return p.metrics[nodeKey] }

// Validate checks internal consistency: every metric row corresponds to a
// tree node and the tree is non-empty.
func (p *Profile) Validate() error {
	if p.tree.Len() == 0 {
		return fmt.Errorf("profile: empty call tree")
	}
	for key := range p.metrics {
		if p.tree.NodeByKey(key) == nil {
			return fmt.Errorf("profile: metrics recorded for unknown node key %q", key)
		}
	}
	return nil
}

// Hash returns a deterministic signed 64-bit identity derived from the
// profile's metadata via FNV-64a — the "unique hash value" profile index
// of paper §3.2.1, rendered like the paper's signed decimals.
func (p *Profile) Hash() int64 {
	h := fnv.New64a()
	keys := append([]string(nil), p.metaOrder...)
	sort.Strings(keys)
	for _, k := range keys {
		io.WriteString(h, k)
		io.WriteString(h, "=")
		io.WriteString(h, dataframe.EncodeKey([]dataframe.Value{p.meta[k]}))
		io.WriteString(h, ";")
	}
	return int64(h.Sum64())
}

// MapPaths returns a new profile whose call-tree paths are rewritten by
// fn (metadata is copied verbatim). Useful for aligning trees collected
// by different tools before composition — e.g. renaming a CUDA variant's
// "Base_CUDA" wrapper region to match the CPU profiles' root. fn must be
// injective on the profile's paths; collisions merge metrics (later
// nodes win per metric) and an error is returned when two rewritten
// paths collide with conflicting metric sets.
func (p *Profile) MapPaths(fn func(path []string) []string) (*Profile, error) {
	out := New()
	for _, k := range p.metaOrder {
		out.SetMeta(k, p.meta[k])
	}
	seen := map[string]string{}
	for _, n := range p.tree.Nodes() {
		newPath := fn(n.Path())
		if len(newPath) == 0 {
			return nil, fmt.Errorf("profile: MapPaths produced empty path for %q", n.PathString())
		}
		enc := calltree.EncodePath(newPath)
		if prev, dup := seen[enc]; dup {
			return nil, fmt.Errorf("profile: MapPaths collides %q and %q", prev, n.PathString())
		}
		seen[enc] = n.PathString()
		if err := out.adoptSample(newPath, p.NodeMetrics(n.Key())); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Rebase returns a copy of the profile with the root region renamed.
func (p *Profile) Rebase(newRoot string) (*Profile, error) {
	return p.MapPaths(func(path []string) []string {
		out := append([]string(nil), path...)
		out[0] = newRoot
		return out
	})
}

// MergeMetrics overlays another profile's metrics onto this one,
// returning a new profile: trees are unioned and, where both profiles
// record the same metric at the same node, other wins. This mirrors
// appending NCU metrics onto Caliper GPU profiles (paper §5.1.2: "NCU
// metrics ... which we append to the metrics from our CPU profiles").
// Metadata: p's entries first, then other's novel keys.
func (p *Profile) MergeMetrics(other *Profile) (*Profile, error) {
	out := New()
	for _, k := range p.metaOrder {
		out.SetMeta(k, p.meta[k])
	}
	for _, k := range other.metaOrder {
		if _, exists := out.meta[k]; !exists {
			out.SetMeta(k, other.meta[k])
		}
	}
	for _, n := range p.tree.Nodes() {
		if err := out.adoptSample(n.Path(), p.NodeMetrics(n.Key())); err != nil {
			return nil, err
		}
	}
	for _, n := range other.tree.Nodes() {
		if err := out.adoptSample(n.Path(), other.NodeMetrics(n.Key())); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ---- serialization ----

type profileJSON struct {
	Format   string         `json:"format"`
	Version  int            `json:"version"`
	Metadata map[string]any `json:"metadata"`
	MetaKeys []string       `json:"metadata_order"`
	Nodes    []nodeJSON     `json:"nodes"`
}

type nodeJSON struct {
	Path    []string       `json:"path"`
	Metrics map[string]any `json:"metrics,omitempty"`
}

func encodeValue(v dataframe.Value) any {
	if v.IsNull() {
		return nil
	}
	switch v.Kind() {
	case dataframe.Float:
		f := v.Float()
		if math.IsInf(f, 0) {
			return nil // JSON cannot carry infinities; treat as missing
		}
		// Force a decimal point so integral floats (10.0) round-trip as
		// Float, not Int — column kinds must stay stable across save/load.
		fs := strconv.FormatFloat(f, 'g', -1, 64)
		if !strings.ContainsAny(fs, ".eE") {
			fs += ".0"
		}
		return json.Number(fs)
	case dataframe.Int:
		return v.Int()
	case dataframe.String:
		return v.Str()
	case dataframe.Bool:
		return v.Bool()
	}
	return nil
}

// decodeValue maps JSON scalars to typed values: integral json.Numbers
// become Int, other numbers Float.
func decodeValue(raw any) (dataframe.Value, error) {
	switch t := raw.(type) {
	case nil:
		return dataframe.Null(dataframe.Float), nil
	case bool:
		return dataframe.BoolVal(t), nil
	case string:
		return dataframe.Str(t), nil
	case json.Number:
		v, ok := numberValue(t.String())
		if !ok {
			return dataframe.Value{}, fmt.Errorf("profile: bad number %q", t.String())
		}
		return v, nil
	case float64:
		return dataframe.Float64(t), nil
	default:
		return dataframe.Value{}, fmt.Errorf("profile: unsupported JSON value of type %T", raw)
	}
}

// numberValue types a JSON number literal: Int when it has no '.', 'e' or
// 'E' and fits in int64, Float otherwise. ok is false when the literal
// does not parse as a float64 (it is out of range).
func numberValue(lit string) (v dataframe.Value, ok bool) {
	if !strings.ContainsAny(lit, ".eE") {
		if i, err := strconv.ParseInt(lit, 10, 64); err == nil {
			return dataframe.Int64(i), true
		}
	}
	f, err := strconv.ParseFloat(lit, 64)
	if err != nil {
		return dataframe.Value{}, false
	}
	return dataframe.Float64(f), true
}

// WriteJSON serializes the profile.
func (p *Profile) WriteJSON(w io.Writer) error {
	pj := profileJSON{
		Format:   FormatName,
		Version:  FormatVersion,
		Metadata: make(map[string]any, len(p.meta)),
		MetaKeys: p.MetaKeys(),
	}
	for k, v := range p.meta {
		pj.Metadata[k] = encodeValue(v)
	}
	for _, n := range p.tree.Nodes() {
		nj := nodeJSON{Path: n.Path()}
		if row, ok := p.metrics[n.Key()]; ok && len(row) > 0 {
			nj.Metrics = make(map[string]any, len(row))
			for name, v := range row {
				nj.Metrics[name] = encodeValue(v)
			}
		}
		pj.Nodes = append(pj.Nodes, nj)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(pj)
}

// ReadJSON parses a serialized profile, validating format and structure.
// It reads r whole, then decodes as FromBytes does.
func ReadJSON(r io.Reader) (*Profile, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		// The general decoder sees what it would have streamed: the bytes
		// read, then the error.
		return readJSON(io.MultiReader(bytes.NewReader(data), errReader{err}))
	}
	return FromBytes(data)
}

// errReader fails every read with its error.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// readJSON is the general decoder: encoding/json into profileJSON, then
// format, version, value and structure checks. It decides every input
// the single-pass scanner (scan.go) does not take, and its errors are
// the reader's errors.
func readJSON(r io.Reader) (*Profile, error) {
	dec := json.NewDecoder(r)
	dec.UseNumber()
	var pj profileJSON
	if err := dec.Decode(&pj); err != nil {
		return nil, fmt.Errorf("profile: decode: %w", err)
	}
	if pj.Format != FormatName {
		return nil, fmt.Errorf("profile: unknown format %q (want %q)", pj.Format, FormatName)
	}
	if pj.Version != FormatVersion {
		return nil, fmt.Errorf("profile: unsupported version %d (want %d)", pj.Version, FormatVersion)
	}
	p := New()
	metaKeys := pj.MetaKeys
	if len(metaKeys) == 0 {
		for k := range pj.Metadata {
			metaKeys = append(metaKeys, k)
		}
		sort.Strings(metaKeys)
	}
	for _, k := range metaKeys {
		raw, ok := pj.Metadata[k]
		if !ok {
			return nil, fmt.Errorf("profile: metadata_order names missing key %q", k)
		}
		v, err := decodeValue(raw)
		if err != nil {
			return nil, fmt.Errorf("profile: metadata %q: %w", k, err)
		}
		p.SetMeta(k, v)
	}
	for i, nj := range pj.Nodes {
		if len(nj.Path) == 0 {
			return nil, fmt.Errorf("profile: node %d has empty path", i)
		}
		metrics := make(map[string]dataframe.Value, len(nj.Metrics))
		for name, raw := range nj.Metrics {
			v, err := decodeValue(raw)
			if err != nil {
				return nil, fmt.Errorf("profile: node %d metric %q: %w", i, name, err)
			}
			metrics[name] = v
		}
		if err := p.adoptSample(nj.Path, metrics); err != nil {
			return nil, err
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MarshalBytes serializes the profile to a byte slice.
func (p *Profile) MarshalBytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// FromBytes parses a profile from bytes. Input of the shape WriteJSON
// emits is decoded in one pass (scanProfile); anything else, and every
// error, is the general decoder's (readJSON).
func FromBytes(data []byte) (*Profile, error) {
	if p, ok := scanProfile(data); ok {
		return p, nil
	}
	return readJSON(bytes.NewReader(data))
}

// Save writes the profile to path, creating parent directories. A path
// ending in ".gz" is gzip-compressed — large campaigns (hundreds of
// profiles) shrink by an order of magnitude.
func (p *Profile) Save(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var w io.Writer = f
	var gz *gzip.Writer
	if strings.HasSuffix(path, ".gz") {
		gz = gzip.NewWriter(f)
		w = gz
	}
	if err := p.WriteJSON(w); err != nil {
		return err
	}
	if gz != nil {
		if err := gz.Close(); err != nil {
			return err
		}
	}
	return f.Close()
}

// Load reads a profile from path (gzip-compressed when it ends in ".gz").
func Load(path string) (*Profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var r io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		defer gz.Close()
		r = gz
	}
	p, err := ReadJSON(r)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// LoadFiles reads the given profile paths, fanning the parsing out
// across the parallel engine's worker pool. Output order matches input
// order, and the error surfaced for a bad file is the one a sequential
// left-to-right loop would return, wrapped with the offending path — so
// one broken profile in a 560-file ensemble is identifiable by name.
func LoadFiles(paths []string) ([]*Profile, error) {
	out := make([]*Profile, len(paths))
	err := parallel.ForErr(len(paths), func(i int) error {
		p, err := Load(paths[i])
		if err != nil {
			return fmt.Errorf("profile %d of %d: %w", i+1, len(paths), err)
		}
		out[i] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// LoadDir reads every "*.json" and "*.json.gz" profile under dir (sorted
// by name) and returns them in order. Parsing fans out across the
// parallel engine (see LoadFiles).
func LoadDir(dir string) ([]*Profile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("profile: load dir %s: %w", dir, err)
	}
	var paths []string
	for _, e := range entries {
		if !e.IsDir() && (strings.HasSuffix(e.Name(), ".json") || strings.HasSuffix(e.Name(), ".json.gz")) {
			paths = append(paths, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(paths)
	return LoadFiles(paths)
}
