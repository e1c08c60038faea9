// Command perfbench is the end-to-end benchmark of the thicket serving
// stack. One run generates seeded inputs, starts a measured process that
// sets the store up several times and drives one workload through
// server.New(...).Handler() behind a loopback listener with one
// closed-loop keep-alive client, checks every answer, and prints every
// metric with its unit. The last line of standard output is the run's
// JSON result.
//
//	perfbench --workload dashboard|adhoc|ingest --seed N --seconds S --trace 0|1
//	perfbench repeat --workload W --seeds 1-10 --seconds S [--trace 0|1]
//
// See README.md in this directory for the workloads, the metrics and
// how to read them.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// outDir holds everything a run leaves behind, relative to the
// directory the benchmark runs from.
const outDir = ".bench_build"

func main() {
	args := os.Args[1:]
	var err error
	switch {
	case len(args) > 0 && args[0] == "measure":
		err = measureMain(args[1:])
	case len(args) > 0 && args[0] == "repeat":
		err = repeatMain(args[1:])
	default:
		err = runMain(args)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runConfig is one run's command line.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func (c *runConfig) flags(fs *flag.FlagSet) {
	fs.StringVar(&c.workload, "workload", "", "dashboard, adhoc or ingest")
	fs.Int64Var(&c.seed, "seed", 1, "input seed")
	fs.IntVar(&c.seconds, "seconds", 10, "nominal measured seconds; sizes the fixed op count")
	fs.Func("trace", "1 for the traced per-layer run, 0 for the end-to-end run", func(s string) error {
		switch s {
		case "0", "1":
			c.trace = s == "1"
			return nil
		}
		return fmt.Errorf("want 0 or 1")
	})
}

func (c *runConfig) validate() error {
	if _, ok := workloads[c.workload]; !ok {
		return fmt.Errorf("unknown workload %q (want dashboard, adhoc or ingest)", c.workload)
	}
	if c.seconds < 1 || c.seconds > 60 {
		return fmt.Errorf("--seconds %d out of range 1..60", c.seconds)
	}
	return nil
}

func (c runConfig) args() []string {
	t := "0"
	if c.trace {
		t = "1"
	}
	return []string{"--workload", c.workload, "--seed", strconv.FormatInt(c.seed, 10),
		"--seconds", strconv.Itoa(c.seconds), "--trace", t}
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is what the measured process hands back: the result plus
// diagnostics that are printed but are not metrics, and, from a traced
// run, the benchmark's own spans.
type report struct {
	result
	Notes  map[string]float64 `json:"notes"`
	Errors []string           `json:"errors,omitempty"`
	Spans  []span             `json:"spans,omitempty"`
}

func runMain(args []string) error {
	var c runConfig
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	c.flags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := c.validate(); err != nil {
		return err
	}
	rep, err := runOnce(c)
	if err != nil {
		return err
	}
	printReport(os.Stdout, c, rep)
	if err := writeHistory(c, rep); err != nil {
		return err
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return fmt.Errorf("%d of %d ops failed: %s", rep.Failed, rep.Attempted, strings.Join(rep.Errors, "; "))
	}
	return nil
}

// runOnce generates the inputs, times the host probe around the
// measured process, and returns its report.
func runOnce(c runConfig) (*report, error) {
	work, err := filepath.Abs(filepath.Join(outDir, "work", fmt.Sprintf("%s-%d-%d", c.workload, c.seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(work); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	nIngest := 0
	if c.workload == "ingest" {
		nIngest = opsFor(c.workload, c.seconds) * postsPerOp
	}
	if err := writeInputs(work, c.seed, nIngest); err != nil {
		return nil, fmt.Errorf("generate inputs: %w", err)
	}
	// Write the inputs back now, so that their writeback does not
	// compete with the measured process's fsyncs.
	syscall.Sync()
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	before := probe()
	cmd := exec.Command(exe, append([]string{"measure", "--dir", work}, c.args()...)...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	after := probe()
	if runErr != nil {
		return nil, fmt.Errorf("measured process: %w", runErr)
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("measured process output: %w", err)
	}
	rep.Notes["probe_before_s"] = before.Seconds()
	rep.Notes["probe_after_s"] = after.Seconds()
	return &rep, nil
}

// printReport prints every metric and diagnostic by name with its unit.
func printReport(w io.Writer, c runConfig, rep *report) {
	fmt.Fprintf(w, "workload %s seed %d seconds %d trace %v\n", c.workload, c.seed, c.seconds, c.trace)
	for _, name := range sortedKeys(rep.Metrics) {
		m := rep.Metrics[name]
		fmt.Fprintf(w, "  %-32s %14.6f %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "  %-32s %14.6f %s\n", "error_rate", errorRate(rep.result), "fraction")
	for _, name := range sortedKeys(rep.Notes) {
		fmt.Fprintf(w, "  %-32s %14.6f diagnostic\n", name, rep.Notes[name])
	}
	for _, e := range rep.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
}

// errorRate is failed ops over attempted ops: the result's own fields,
// printed by name.
func errorRate(r result) float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// repeatMain runs one workload once per seed and prints the median, quartiles and range of every
// metric and of the host probe: the evidence behind each bound in
// BENCHMARK.json.
func repeatMain(args []string) error {
	var c runConfig
	var seeds string
	fs := flag.NewFlagSet("perfbench repeat", flag.ContinueOnError)
	c.flags(fs)
	fs.StringVar(&seeds, "seeds", "1-10", "seed range lo-hi")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := c.validate(); err != nil {
		return err
	}
	lo, hi, ok := strings.Cut(seeds, "-")
	a, err1 := strconv.ParseInt(lo, 10, 64)
	b, err2 := strconv.ParseInt(hi, 10, 64)
	if !ok || err1 != nil || err2 != nil || b < a {
		return fmt.Errorf("bad --seeds %q (want lo-hi)", seeds)
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for seed := a; seed <= b; seed++ {
		rc := c
		rc.seed = seed
		rep, err := runOnce(rc)
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		if err := writeHistory(rc, rep); err != nil {
			return err
		}
		if !rep.Correct {
			return fmt.Errorf("seed %d: %d of %d ops failed: %s", seed, rep.Failed, rep.Attempted, strings.Join(rep.Errors, "; "))
		}
		for _, name := range []string{"probe_before_s", "probe_after_s"} {
			values[name] = append(values[name], rep.Notes[name])
			units[name] = "s (diagnostic)"
		}
		fmt.Printf("seed %d:", seed)
		for _, name := range sortedKeys(rep.Metrics) {
			values[name] = append(values[name], rep.Metrics[name].Value)
			units[name] = rep.Metrics[name].Unit
			fmt.Printf(" %s=%.4g", name, rep.Metrics[name].Value)
		}
		fmt.Println()
	}
	fmt.Printf("%-32s %11s %11s %11s %11s %11s %8s %s\n", "metric", "min", "q1", "median", "q3", "max", "iqr/med", "unit")
	for _, name := range sortedKeys(values) {
		xs := values[name]
		q1, q2, q3 := quartiles(xs)
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		fmt.Printf("%-32s %11.5g %11.5g %11.5g %11.5g %11.5g %8.4f %s\n", name, s[0], q1, q2, q3, s[len(s)-1], spread, units[name])
	}
	return nil
}
