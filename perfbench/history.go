package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/dataframe"
	"repro/internal/profile"
)

// writeHistory keeps the run as a thicket profile under
// .bench_build/history: the call tree is the workload with one child
// node per layer, the metrics are the run's numbers, and the metadata
// names the seed, the commit and the host probe. "thicket stats -dir
// .bench_build/history" then analyses benchmark history with thicket
// itself. A traced run's own spans go to .bench_build/traces.
func writeHistory(c runConfig, rep *report) error {
	now := time.Now().UTC()
	p := profile.New()
	p.SetMeta("workload", dataframe.Str(c.workload))
	p.SetMeta("seed", dataframe.Int64(c.seed))
	p.SetMeta("seconds", dataframe.Int64(int64(c.seconds)))
	p.SetMeta("traced", dataframe.BoolVal(c.trace))
	p.SetMeta("commit", dataframe.Str(commit()))
	p.SetMeta("time", dataframe.Str(now.Format(time.RFC3339Nano)))
	p.SetMeta("correct", dataframe.BoolVal(rep.Correct))
	p.SetMeta("error_rate", dataframe.Float64(errorRate(rep.result)))
	for _, k := range []string{"probe_before_s", "probe_after_s"} {
		p.SetMeta(k, dataframe.Float64(rep.Notes[k]))
	}
	nodes := map[string]map[string]dataframe.Value{}
	for name, m := range rep.Metrics {
		layer, metric, ok := strings.Cut(name, ".")
		if !ok {
			layer, metric = "", name
		}
		if nodes[layer] == nil {
			nodes[layer] = map[string]dataframe.Value{}
		}
		nodes[layer][metric] = dataframe.Float64(m.Value)
	}
	if err := p.AddSample([]string{c.workload}, nodes[""]); err != nil {
		return err
	}
	for _, layer := range sortedKeys(nodes) {
		if layer == "" {
			continue
		}
		if err := p.AddSample([]string{c.workload, layer}, nodes[layer]); err != nil {
			return err
		}
	}
	name := fmt.Sprintf("%s-%s-seed%d", now.Format("20060102T150405.000000000"), c.workload, c.seed)
	if err := p.Save(filepath.Join(outDir, "history", name+".json")); err != nil {
		return err
	}
	if len(rep.Spans) == 0 {
		return nil
	}
	b, err := json.Marshal(rep.Spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(outDir, "traces"), 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "traces", name+".json"), b, 0o644)
}

// commit is the source revision the benchmark was built from, when
// the build recorded one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
