package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
)

// setupRuns is how many times one run sets the store up. A single
// 0.2 s set-up varies by half its length with the host, so setup_s is
// the median of several.
const setupRuns = 7

// measureMain is the measured process: it reads the generated inputs,
// sets up, runs the workload and writes its report as JSON.
func measureMain(args []string) error {
	var c runConfig
	var dir string
	fs := flag.NewFlagSet("perfbench measure", flag.ContinueOnError)
	c.flags(fs)
	fs.StringVar(&dir, "dir", "", "directory of generated inputs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := c.validate(); err != nil {
		return err
	}
	m, err := readManifest(dir)
	if err != nil {
		return err
	}
	payloads, err := readPayloads(dir, m.Ingest)
	if err != nil {
		return err
	}
	ops := buildOps(c.workload, c.seed, opsFor(c.workload, c.seconds), newAnswers(baseTable(), m), payloads)
	run := &measurement{cfg: c, dir: dir, m: m, ops: ops, payloads: payloads}
	var rep *report
	if c.trace {
		rep, err = run.traced()
	} else {
		rep, err = run.untraced()
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// readManifest reads what writeInputs recorded about the inputs.
func readManifest(dir string) (*manifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", manifestFile, err)
	}
	return &m, nil
}

// measurement is one measured process's state.
type measurement struct {
	cfg      runConfig
	dir      string
	m        *manifest
	ops      [][]request
	payloads [][]byte
	stores   int
}

// setUp builds one more served store, in a directory of its own. It
// first syncs, outside the timed set-up, so that the writeback and
// deletion of the previous store do not land in this one's fsyncs.
func (r *measurement) setUp(wrap *wrapHandler) (*instance, setupTimes, error) {
	r.stores++
	syscall.Sync()
	return setUp(r.dir, filepath.Join(r.dir, fmt.Sprintf("store-%d", r.stores)), r.cfg.workload == "ingest", wrap)
}

// discard closes an instance and deletes its store and WAL.
func (r *measurement) discard(inst *instance) error {
	if err := inst.close(); err != nil {
		return err
	}
	if err := os.RemoveAll(inst.dir); err != nil {
		return err
	}
	if err := os.RemoveAll(inst.dir + ".wal"); err != nil {
		return err
	}
	runtime.GC()
	return nil
}

// setUps times setupRuns set-ups and keeps the last one serving.
func (r *measurement) setUps() (*instance, []setupTimes, error) {
	var times []setupTimes
	var inst *instance
	for i := 0; i < setupRuns; i++ {
		if inst != nil {
			if err := r.discard(inst); err != nil {
				return nil, nil, err
			}
		}
		var t setupTimes
		var err error
		if inst, t, err = r.setUp(nil); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, t)
	}
	return inst, times, nil
}

// outcome is what one measured phase on one instance produced.
type outcome struct {
	ph        phase
	rt0, rt1  runtimeSample
	colHits   int64 // column-cache hits and misses over the phase
	colMisses int64
	spaceAmp  float64
	verifyErr error
}

// measurePhase runs the ops on inst, then (for ingest) verifies the
// store on disk and reads its size.
func (r *measurement) measurePhase(inst *instance, h *hooks) outcome {
	var o outcome
	runtime.GC()
	info0 := inst.st.Info()
	o.rt0 = sampleRuntime()
	o.ph = runPhase(inst, r.ops, r.cfg.workload == "dashboard", h)
	o.rt1 = sampleRuntime()
	info1 := inst.st.Info()
	o.colHits, o.colMisses = info1.CacheHits-info0.CacheHits, info1.CacheMisses-info0.CacheMisses
	if inst.in != nil {
		o.verifyErr = verifyIngest(inst, r.payloads)
	}
	o.spaceAmp = float64(inst.st.Info().FileBytes) / float64(r.m.BaseBytes+r.m.IngestBytes)
	return o
}

// fill records an outcome's pass/fail accounting in the report.
func (o outcome) fill(rep *report) {
	rep.Attempted += o.ph.attempted
	rep.Failed += o.ph.failed
	rep.Errors = append(rep.Errors, o.ph.errs...)
	if o.verifyErr != nil {
		rep.Failed++
		rep.Errors = append(rep.Errors, "ingest verification: "+o.verifyErr.Error())
	}
	rep.Correct = rep.Failed == 0
}

// rounds is how many times the end-to-end run repeats its ops, each
// time on a fresh set-up. One ingest round may grow the store by at
// most maxIngest profiles, too few ops for a steady median, so ingest
// measures two rounds from the same base store.
func rounds(workload string) int {
	if workload == "ingest" {
		return 2
	}
	return 1
}

// untraced is the end-to-end run.
func (r *measurement) untraced() (*report, error) {
	inst, times, err := r.setUps()
	if err != nil {
		return nil, err
	}
	var o outcome
	for k := 0; k < rounds(r.cfg.workload); k++ {
		if k > 0 {
			if inst, _, err = r.setUp(nil); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
		}
		ok := r.measurePhase(inst, nil)
		o.ph.lat = append(o.ph.lat, ok.ph.lat...)
		o.ph.wall += ok.ph.wall
		o.ph.attempted += ok.ph.attempted
		o.ph.failed += ok.ph.failed
		o.ph.errs = append(o.ph.errs, ok.ph.errs...)
		o.spaceAmp = ok.spaceAmp
		if o.verifyErr == nil {
			o.verifyErr = ok.verifyErr
		}
		if err := r.discard(inst); err != nil {
			return nil, err
		}
	}
	peak, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	lat := millis(o.ph.lat)
	p50, err := percentile(lat, 0.5)
	if err != nil {
		return nil, err
	}
	p90, err := percentile(lat, 0.9)
	if err != nil {
		return nil, err
	}
	var setup []float64
	for _, t := range times {
		setup = append(setup, t.Total.Seconds())
	}
	rep := &report{Notes: map[string]float64{
		"ops":         float64(o.ph.attempted),
		"measured_s":  o.ph.wall.Seconds(),
		"setup_min_s": slices.Min(setup),
		"setup_max_s": slices.Max(setup),
	}}
	rep.Metrics = map[string]metricValue{
		"setup_s":        {median(setup), "s"},
		"op_p50_ms":      {p50, "ms"},
		"op_p90_ms":      {p90, "ms"},
		"throughput_ops": {float64(o.ph.attempted) / o.ph.wall.Seconds(), "ops/s"},
		"peak_rss_mb":    {peak, "MB"},
		"space_amp":      {o.spaceAmp, "ratio"},
	}
	o.fill(rep)
	return rep, nil
}
