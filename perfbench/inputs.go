package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/profile"
	"repro/internal/sim"
)

// entry is one row of the benchmark's own generation table: the
// configuration a profile was generated from and the Figure-13 row
// (which is also its base-store segment). Answer checks evaluate
// predicates against this table, never through the program's planner.
type entry struct {
	Row int
	Cfg sim.RajaConfig
}

// baseTable enumerates the 560 Figure-13 configurations in the order
// sim.RajaEnsemble generates them, row by row.
func baseTable() []entry {
	var out []entry
	for ri, row := range sim.Figure13Rows() {
		for _, size := range row.Sizes {
			if row.Variant == sim.VariantCUDA {
				for _, bs := range row.BlockSizes {
					for trial := 0; trial < row.Trials; trial++ {
						out = append(out, entry{Row: ri, Cfg: sim.RajaConfig{
							Cluster: row.Cluster, Variant: row.Variant, Tool: sim.ToolGPU,
							ProblemSize: size, Compiler: row.Compiler, Optimization: row.Opts[0],
							OmpThreads: row.OmpThreads, CudaCompiler: row.CudaCompiler,
							BlockSize: bs, Trial: trial,
						}})
					}
				}
				continue
			}
			for _, opt := range row.Opts {
				for trial := 0; trial < row.Trials; trial++ {
					out = append(out, entry{Row: ri, Cfg: sim.RajaConfig{
						Cluster: row.Cluster, Variant: row.Variant, Tool: sim.ToolTiming,
						ProblemSize: size, Compiler: row.Compiler, Optimization: opt,
						OmpThreads: row.OmpThreads, Trial: trial,
					}})
				}
			}
		}
	}
	return out
}

// ingestTable returns n profiles to stream in: the Figure-13
// configurations of trial 0, cycled, with trial numbers from 10 up so
// that no ingested profile shares a metadata hash with the base store
// or with another ingested profile.
func ingestTable(n int) []entry {
	var firsts []entry
	for _, e := range baseTable() {
		if e.Cfg.Trial == 0 {
			firsts = append(firsts, e)
		}
	}
	out := make([]entry, n)
	for i := range out {
		e := firsts[i%len(firsts)]
		e.Cfg.Trial = 10 + i/len(firsts)
		out[i] = e
	}
	return out
}

// value returns a table cell under the metadata column name the
// simulator writes it to.
func (e entry) value(col string) (s string, num float64, isNum bool) {
	c := e.Cfg
	switch col {
	case "cluster":
		return c.Cluster, 0, false
	case "variant":
		return string(c.Variant), 0, false
	case "compiler":
		return c.Compiler, 0, false
	case "compiler optimizations":
		return c.Optimization, 0, false
	case "problem size":
		return "", float64(c.ProblemSize), true
	case "omp num threads":
		return "", float64(c.OmpThreads), true
	case "trial":
		return "", float64(c.Trial), true
	}
	panic("perfbench: no table column " + col)
}

// pred is one where= predicate as the benchmark generates it.
type pred struct {
	Col, Op, Val string
}

func (p pred) String() string { return p.Col + p.Op + p.Val }

// match evaluates the predicate with the endpoint's documented
// semantics: numeric comparison when both sides are numbers,
// lexicographic comparison otherwise.
func (p pred) match(e entry) bool {
	s, num, isNum := e.value(p.Col)
	cmp := 0
	if rhs, err := strconv.ParseFloat(p.Val, 64); isNum && err == nil {
		switch {
		case num < rhs:
			cmp = -1
		case num > rhs:
			cmp = 1
		}
	} else {
		if isNum {
			s = strconv.FormatFloat(num, 'f', -1, 64)
		}
		cmp = strings.Compare(s, p.Val)
	}
	switch p.Op {
	case "=":
		return cmp == 0
	case "!=":
		return cmp != 0
	case "<":
		return cmp < 0
	case "<=":
		return cmp <= 0
	case ">":
		return cmp > 0
	case ">=":
		return cmp >= 0
	}
	panic("perfbench: bad operator " + p.Op)
}

// matching returns the table entries satisfying every predicate.
func matching(table []entry, preds []pred) []entry {
	var out []entry
	for _, e := range table {
		ok := true
		for _, p := range preds {
			if !p.match(e) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, e)
		}
	}
	return out
}

// Predicate families for adhoc questions. Prunable predicates name a
// value held by only some base segments, so zone maps and dictionaries
// can skip the others; broad predicates cut across every segment.
var (
	prunable = []pred{
		{"variant", "=", "CUDA"},
		{"variant", "=", "Sequential"},
		{"variant", "=", "OpenMP"},
		{"compiler", "=", "g++-8.3.1"},
		{"compiler", "=", "clang++-9.0.0"},
	}
	broad = []pred{
		{"problem size", "<=", "1048576"},
		{"problem size", "<=", "2097152"},
		{"problem size", "<=", "4194304"},
		{"problem size", ">=", "4194304"},
		{"compiler optimizations", "=", "-O0"},
		{"compiler optimizations", "=", "-O2"},
		{"trial", "<", "3"},
		{"trial", "<", "7"},
		{"omp num threads", ">=", "72"},
	}
)

// question is one adhoc op: a where= conjunction and the nonce that
// keeps its requests out of the response cache.
type question struct {
	Preds []pred
	Nonce int64
}

// conjunctions lists every adhoc question shape: no prunable
// predicate or one, with one or two broad predicates, keeping those
// that match at least one base profile so that no request fails by
// design.
func conjunctions() [][]pred {
	table := baseTable()
	var out [][]pred
	heads := [][]pred{nil}
	for _, p := range prunable {
		heads = append(heads, []pred{p})
	}
	for _, head := range heads {
		for i := range broad {
			for j := i; j < len(broad); j++ {
				preds := append(append([]pred(nil), head...), broad[i])
				if j > i {
					preds = append(preds, broad[j])
				}
				if len(matching(table, preds)) > 0 {
					out = append(out, preds)
				}
			}
		}
	}
	return out
}

// adhocSchedule lays out n questions (n a multiple of the shape count)
// as seeded shuffles of every shape. Each run therefore asks the same
// mix of questions, and the seed sets their order and nonces: a run's
// op latencies vary with the host, not with which questions it drew.
func adhocSchedule(seed int64, n int) []question {
	rng := rand.New(rand.NewSource(seed))
	shapes := conjunctions()
	out := make([]question, 0, n)
	for len(out) < n {
		for _, i := range rng.Perm(len(shapes)) {
			if len(out) == n {
				break
			}
			out = append(out, question{Preds: shapes[i], Nonce: rng.Int63()})
		}
	}
	return out
}

// scheduleHash digests a workload's request schedule so tests can show
// that a seed fixes it byte for byte.
func scheduleHash(workload string, seed int64, ops int) string {
	h := sha256.New()
	for _, rq := range schedule(workload, seed, ops) {
		fmt.Fprintf(h, "%s %s\n", rq.method, rq.target)
		h.Write(rq.body)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// manifest is what the generating process hands the measured process
// besides the profile files: per-variant call-tree paths (the expected
// answer of tree-shaped responses) and the bytes generated.
type manifest struct {
	Ingest       int                 `json:"ingest"`
	VariantPaths map[string][]string `json:"variant_paths"`
	BaseBytes    int64               `json:"base_bytes"`
	IngestBytes  int64               `json:"ingest_bytes"`
}

const (
	manifestFile = "inputs.json"
	baseDir      = "profiles"
	ingestDir    = "ingest"
)

// writeInputs generates the base ensemble with sim.RajaEnsemble, one
// Figure-13 row at a time, and the profiles to ingest, writing each as
// profile JSON under dir.
func writeInputs(dir string, seed int64, nIngest int) error {
	m := manifest{Ingest: nIngest, VariantPaths: map[string][]string{}}
	if err := os.MkdirAll(filepath.Join(dir, baseDir), 0o755); err != nil {
		return err
	}
	table := baseTable()
	i := 0
	for ri, row := range sim.Figure13Rows() {
		ps, err := sim.RajaEnsemble(row, seed)
		if err != nil {
			return err
		}
		for j, p := range ps {
			c := table[i].Cfg
			if table[i].Row != ri || c.Trial != metaInt(p, "trial") || int(c.ProblemSize) != metaInt(p, "problem size") {
				return fmt.Errorf("perfbench: generation table out of step at profile %d", i)
			}
			b, err := p.MarshalBytes()
			if err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(dir, baseDir, fmt.Sprintf("r%d-%03d.json", ri, j)), b, 0o644); err != nil {
				return err
			}
			m.BaseBytes += int64(len(b))
			i++
		}
		var paths []string
		for _, n := range ps[0].Tree().Nodes() {
			paths = append(paths, n.PathString())
		}
		sort.Strings(paths)
		m.VariantPaths[string(row.Variant)] = paths
	}
	if nIngest > 0 {
		if err := os.MkdirAll(filepath.Join(dir, ingestDir), 0o755); err != nil {
			return err
		}
		payloads, err := ingestPayloads(seed, nIngest)
		if err != nil {
			return err
		}
		for i, b := range payloads {
			if err := os.WriteFile(filepath.Join(dir, ingestDir, fmt.Sprintf("%05d.json", i)), b, 0o644); err != nil {
				return err
			}
			m.IngestBytes += int64(len(b))
		}
	}
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, manifestFile), b, 0o644)
}

// metaInt reads an integer metadata value of a generated profile.
func metaInt(p *profile.Profile, key string) int {
	v, _ := p.Meta(key)
	return int(v.Int())
}
