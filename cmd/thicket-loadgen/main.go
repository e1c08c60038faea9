// Command thicket-loadgen is a seed-reproducible synthetic traffic
// generator for thicketd. It expands a workload spec into a fully
// deterministic request schedule (arrival times, query parameters,
// admission decisions), replays it open-loop against a live server, and
// reports per-SLO-class latency percentiles, achieved vs offered
// throughput, and Jain's fairness index — as human tables and as
// machine-readable JSON (-out).
//
// Two targets:
//
//   - self-host (default): boots an in-process thicketd on a loopback
//     port wired with a self-monitor ticked on the replay's virtual
//     clock (1s), whose latency-baseline rules also judge the
//     tail-sampling trace collector, and a self-profiler — the full
//     closed loop. -regress injects a latency regression mid-run and a
//     baseline rule is expected to fire for the slowed endpoint.
//   - -target URL: drives an external thicketd. Latency injection then
//     belongs to that server (-inject-latency); -regress is rejected.
//
// Exit codes: 0 success; 1 usage or runtime failure; 2 a class p99
// exceeded its budget; 3 a latency-baseline alert fired with
// -fail-on-anomaly; 4 none fired despite -expect-anomaly; 5 HTTP errors
// with -fail-on-error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/ingest"
	"repro/internal/loadgen"
)

type config struct {
	target   string
	store    string
	seed     int64
	duration time.Duration
	rate     float64
	workload string
	specPath string
	regress  string
	out      string
	selfOut  string

	concurrency   int
	maxP99        time.Duration
	failOnAnomaly bool
	expectAnomaly bool
	failOnError   bool

	ingestQueue   int
	ingestFlush   int
	ingestCompact int
	ingestSync    string
}

func parseFlags(args []string, stderr io.Writer) (*config, error) {
	fs := flag.NewFlagSet("thicket-loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := &config{}
	fs.StringVar(&cfg.target, "target", "", "base URL of an external thicketd (empty self-hosts one in-process)")
	fs.StringVar(&cfg.store, "store", "", "ensemble store for the self-hosted server (empty generates a synthetic MARBL store)")
	fs.Int64Var(&cfg.seed, "seed", 1, "master seed; every random draw derives from it")
	fs.DurationVar(&cfg.duration, "duration", 10*time.Second, "virtual run horizon")
	fs.Float64Var(&cfg.rate, "rate", 200, "total offered request rate per second")
	fs.StringVar(&cfg.workload, "workload", "mixed", "workload: mixed, cache-friendly, cache-hostile, hot-skew, ingest-query")
	fs.StringVar(&cfg.specPath, "spec", "", "JSON workload spec file (overrides -workload/-rate)")
	fs.StringVar(&cfg.regress, "regress", "", "inject a latency regression, e.g. /api/stats=30ms@4s (self-host only)")
	fs.StringVar(&cfg.out, "out", "", "write the machine-readable report (BENCH_loadgen.json) here")
	fs.StringVar(&cfg.selfOut, "self-profile-store", "", "self-profile export store path (default <scratch>/self.tks)")
	fs.IntVar(&cfg.concurrency, "concurrency", 16, "max in-flight requests during replay")
	fs.DurationVar(&cfg.maxP99, "max-p99", 0, "fallback p99 budget for classes without a target (0 disables)")
	fs.BoolVar(&cfg.failOnAnomaly, "fail-on-anomaly", false, "exit 3 if a latency-baseline alert fires (clean-run CI gate)")
	fs.BoolVar(&cfg.expectAnomaly, "expect-anomaly", false, "exit 4 unless a latency-baseline alert fires")
	fs.BoolVar(&cfg.failOnError, "fail-on-error", false, "exit 5 if any request errored")
	fs.IntVar(&cfg.ingestQueue, "ingest-queue", 0, "self-host ingest admission-queue depth (0 selects the default)")
	fs.IntVar(&cfg.ingestFlush, "ingest-flush", 0, "self-host ingest L0 flush threshold in profiles (0 selects the default)")
	fs.IntVar(&cfg.ingestCompact, "ingest-compact-run", 0, "self-host compaction run length (0 default, negative disables)")
	fs.StringVar(&cfg.ingestSync, "ingest-sync", "batch", "self-host WAL fsync policy: batch, always, none")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if _, err := ingest.ParseSyncPolicy(cfg.ingestSync); err != nil {
		return nil, err
	}
	if cfg.expectAnomaly && cfg.failOnAnomaly {
		return nil, fmt.Errorf("-expect-anomaly and -fail-on-anomaly are mutually exclusive")
	}
	if cfg.target != "" && cfg.regress != "" {
		return nil, fmt.Errorf("-regress needs the self-hosted server; use thicketd -inject-latency against -target")
	}
	return cfg, nil
}

// buildSpec resolves -spec / -workload / -rate into a workload spec.
func buildSpec(cfg *config) (loadgen.Spec, error) {
	if cfg.specPath != "" {
		raw, err := os.ReadFile(cfg.specPath)
		if err != nil {
			return loadgen.Spec{}, err
		}
		var spec loadgen.Spec
		if err := json.Unmarshal(raw, &spec); err != nil {
			return loadgen.Spec{}, fmt.Errorf("parse %s: %w", cfg.specPath, err)
		}
		if spec.Seed == 0 {
			spec.Seed = cfg.seed
		}
		if spec.Duration == 0 {
			spec.Duration = cfg.duration
		}
		return spec, nil
	}
	if cfg.workload == "mixed" || cfg.workload == "" {
		return loadgen.MixedSpec(cfg.seed, cfg.duration, cfg.rate), nil
	}
	// A single named mix: one client, one class carrying the -max-p99
	// budget if set.
	spec := loadgen.Spec{
		Seed:     cfg.seed,
		Duration: cfg.duration,
		Classes:  []loadgen.SLOClass{{Name: "default", TargetP99: cfg.maxP99}},
		Clients: []loadgen.ClientSpec{{
			Name:     cfg.workload,
			Class:    "default",
			Arrival:  loadgen.ArrivalSpec{Kind: loadgen.ArrivalPoisson, RatePerSec: cfg.rate},
			Workload: cfg.workload,
		}},
	}
	return spec, nil
}

// verdict maps the finished report onto the exit-code contract.
func verdict(cfg *config, rep *loadgen.Report, stderr io.Writer) int {
	code := 0
	for _, check := range []struct {
		cond bool
		c    int
		msg  string
	}{
		{overBudget(cfg, rep, stderr), 2, "p99 over budget"},
		{cfg.failOnAnomaly && rep.Measured.Anomalies > 0, 3,
			fmt.Sprintf("latency-baseline alerts fired %d times on a run expected clean", rep.Measured.Anomalies)},
		{cfg.expectAnomaly && rep.Measured.Anomalies == 0, 4,
			"no latency-baseline alert fired despite -expect-anomaly"},
		{cfg.failOnError && rep.Measured.Errors > 0, 5,
			fmt.Sprintf("%d requests errored", rep.Measured.Errors)},
	} {
		if check.cond && code == 0 {
			fmt.Fprintf(stderr, "thicket-loadgen: FAIL: %s\n", check.msg)
			code = check.c
		}
	}
	return code
}

// overBudget reports whether any class blew its p99 budget — its own
// TargetP99 if declared, else the -max-p99 fallback.
func overBudget(cfg *config, rep *loadgen.Report, stderr io.Writer) bool {
	for name, cs := range rep.Measured.Classes {
		budget := time.Duration(cs.TargetP99US) * time.Microsecond
		if budget == 0 {
			budget = cfg.maxP99
		}
		if budget > 0 && time.Duration(cs.P99US)*time.Microsecond > budget {
			fmt.Fprintf(stderr, "thicket-loadgen: class %q p99 %s > budget %s\n",
				name, time.Duration(cs.P99US)*time.Microsecond, budget)
			return true
		}
	}
	return false
}

// ingestOptions maps the -ingest-* flags onto the pipeline config.
func ingestOptions(cfg *config) ingest.Options {
	sync, _ := ingest.ParseSyncPolicy(cfg.ingestSync) // validated at flag parse
	return ingest.Options{
		QueueDepth:    cfg.ingestQueue,
		FlushProfiles: cfg.ingestFlush,
		CompactRun:    cfg.ingestCompact,
		Sync:          sync,
	}
}

func run(ctx context.Context, cfg *config, stdout, stderr io.Writer) (int, error) {
	spec, err := buildSpec(cfg)
	if err != nil {
		return 1, err
	}
	sched, err := loadgen.BuildSchedule(spec)
	if err != nil {
		return 1, err
	}
	regress, err := loadgen.ParseRegress(cfg.regress)
	if err != nil {
		return 1, err
	}

	var target loadgen.Target
	var host *loadgen.SelfHost
	if cfg.target != "" {
		target = loadgen.Target{BaseURL: cfg.target, Concurrency: cfg.concurrency}
		fmt.Fprintf(stderr, "thicket-loadgen: driving %s with %d scheduled requests (seed %d)\n",
			cfg.target, len(sched.Events), spec.Seed)
	} else {
		scratch, err := os.MkdirTemp("", "thicket-loadgen-*")
		if err != nil {
			return 1, err
		}
		defer os.RemoveAll(scratch)
		host, err = loadgen.StartSelfHost(loadgen.SelfHostOptions{
			StorePath:       cfg.store,
			ScratchDir:      scratch,
			Seed:            cfg.seed,
			SelfProfilePath: cfg.selfOut,
			Ingest:          ingestOptions(cfg),
		})
		if err != nil {
			return 1, err
		}
		defer host.Close()
		target = host.Target(cfg.concurrency, regress)
		fmt.Fprintf(stderr, "thicket-loadgen: self-hosted thicketd at %s, %d scheduled requests (seed %d)\n",
			host.URL, len(sched.Events), spec.Seed)
		if regress != nil {
			fmt.Fprintf(stderr, "thicket-loadgen: arming %s +%s at t=%s\n",
				regress.Path, regress.Delay, regress.Onset)
		}
	}

	m, err := loadgen.Run(ctx, sched, target)
	if err != nil {
		return 1, err
	}
	rep := loadgen.BuildReport(sched, m)
	if host != nil {
		exported, err := host.Annotate(rep)
		if err != nil {
			return 1, fmt.Errorf("self-profile flush: %w", err)
		}
		if exported > 0 {
			fmt.Fprintf(stderr, "thicket-loadgen: exported %d slow-trace profiles to %s\n",
				exported, host.SelfProfilePath())
		}
	}

	rep.RenderText(stdout)
	if cfg.out != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return 1, err
		}
		if err := os.WriteFile(cfg.out, append(raw, '\n'), 0o644); err != nil {
			return 1, err
		}
		fmt.Fprintf(stderr, "thicket-loadgen: wrote %s\n", cfg.out)
	}
	return verdict(cfg, rep, stderr), nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	code, err := run(ctx, cfg, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "thicket-loadgen: %v\n", err)
	}
	os.Exit(code)
}
