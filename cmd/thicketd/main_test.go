package main

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	thicket "repro"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func testConfig(storePath string) config {
	return config{
		storePath:   storePath,
		addr:        "127.0.0.1:0",
		timeout:     time.Second,
		maxConc:     4,
		traceSample: 1, // flag default; struct literals bypass flag.Parse
	}
}

func TestServeMissingStoreNamesPath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "absent.tks")
	err := serve(context.Background(), testConfig(path), os.Stderr)
	if err == nil {
		t.Fatal("serve on a missing store succeeded")
	}
	if !strings.Contains(err.Error(), path) {
		t.Errorf("serve error %q does not name the offending path %q", err, path)
	}
}

// writeStore builds a small ensemble store for serve tests.
func writeStore(t *testing.T) string {
	t.Helper()
	profiles, err := sim.MarblEnsemble([]sim.MarblCluster{sim.ClusterRZTopaz}, []int{1, 4}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	th, err := thicket.FromProfiles(profiles, thicket.Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ensemble.tks")
	if err := thicket.CreateStore(path, th); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseInjectLatency(t *testing.T) {
	got, err := parseInjectLatency("/api/stats=50ms, /api/query=10ms@8s")
	if err != nil {
		t.Fatal(err)
	}
	if got["/api/stats"] != (injectSpec{delay: 50 * time.Millisecond}) {
		t.Errorf("parseInjectLatency[/api/stats] = %v", got["/api/stats"])
	}
	if got["/api/query"] != (injectSpec{delay: 10 * time.Millisecond, after: 8 * time.Second}) {
		t.Errorf("parseInjectLatency[/api/query] = %v", got["/api/query"])
	}
	if got, err := parseInjectLatency(""); err != nil || got != nil {
		t.Errorf("empty spec = %v, %v", got, err)
	}
	for _, bad := range []string{"/api/stats", "=50ms", "/api/stats=fast", "/api/stats=50ms@soon"} {
		if _, err := parseInjectLatency(bad); err == nil {
			t.Errorf("parseInjectLatency(%q) accepted", bad)
		}
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo, "": slog.LevelInfo,
		"WARN": slog.LevelWarn, "warning": slog.LevelWarn, "error": slog.LevelError,
	} {
		got, err := parseLevel(in)
		if err != nil || got != want {
			t.Errorf("parseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := parseLevel("loud"); err == nil {
		t.Error(`parseLevel("loud") accepted`)
	}
}

func TestServeRejectsBadFlags(t *testing.T) {
	path := writeStore(t)
	cfg := testConfig(path)
	cfg.traceSample = 1.5
	if err := serve(context.Background(), cfg, io.Discard); err == nil {
		t.Error("out-of-range -trace-sample accepted")
	}
	cfg = testConfig(path)
	cfg.logLevel = "loud"
	if err := serve(context.Background(), cfg, io.Discard); err == nil {
		t.Error("bad -log-level accepted")
	}
	cfg = testConfig(path)
	cfg.injectLatency = "nonsense"
	if err := serve(context.Background(), cfg, io.Discard); err == nil {
		t.Error("bad -inject-latency accepted")
	}
	// A ring too short for heap-growth's 5-tick rate window would
	// silently disable that rule; startup must refuse it by name.
	cfg = testConfig(path)
	cfg.monitorRing = 4
	if err := serve(context.Background(), cfg, io.Discard); err == nil || !strings.Contains(err.Error(), "heap-growth") {
		t.Errorf("-monitor-ring 4 with the default rules: err %v, want one naming heap-growth", err)
	}
	// Both self-data stores are written on the monitor's tick: with the
	// monitor off, startup refuses either by name instead of ignoring it.
	for flag, set := range map[string]func(*config){
		"-monitor-store":      func(c *config) { c.monitorStore = filepath.Join(t.TempDir(), "monitor.tks") },
		"-self-profile-store": func(c *config) { c.selfProfilePath = filepath.Join(t.TempDir(), "self.tks") },
	} {
		cfg = testConfig(path)
		cfg.monitorInterval = -1
		set(&cfg)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := serve(ctx, cfg, io.Discard); err == nil || !strings.Contains(err.Error(), flag) {
			t.Errorf("%s with -monitor-interval -1: err %v, want one naming %s", flag, err, flag)
		}
	}
}

// TestServeSelfProfileLifecycle: a serve run with -self-profile-store
// set must start and cleanly stop the monitor's slow-trace drain even
// when no slow traces were retained (the store file is then never
// created).
func TestServeSelfProfileLifecycle(t *testing.T) {
	prevEnabled := thicket.EnableTelemetry(false)
	defer thicket.EnableTelemetry(prevEnabled)

	cfg := testConfig(writeStore(t))
	cfg.selfProfilePath = filepath.Join(t.TempDir(), "self.tks")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var sb strings.Builder
	if err := serve(ctx, cfg, &sb); err != nil {
		t.Fatalf("serve: %v\noutput:\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "self-profiling enabled") {
		t.Errorf("serve output missing self-profiler startup:\n%s", sb.String())
	}
	if _, err := os.Stat(cfg.selfProfilePath); !os.IsNotExist(err) {
		t.Errorf("self-profile store created with nothing to export (err=%v)", err)
	}
}

// TestSelfDataRefusesSingleFile: both self-data writers refuse a
// single-file store, which ingest could only append to and never
// compact, and so does serve for either flag naming one. The store is
// left as it was: it still opens and loads.
func TestSelfDataRefusesSingleFile(t *testing.T) {
	path := writeStore(t)
	_, err := thicket.NewMonitor(thicket.MonitorOptions{
		Registry: telemetry.NewRegistry(),
		Rules:    []thicket.AlertRule{},
		Traces:   &thicket.TraceCollector{Policy: &thicket.TracePolicy{}},
		History:  thicket.MonitorHistoryOptions{TraceStorePath: path},
	})
	if err == nil || !strings.Contains(err.Error(), path) {
		t.Errorf("NewMonitor with a single-file trace store: err = %v, want one naming %s", err, path)
	}
	_, err = thicket.NewMonitor(thicket.MonitorOptions{
		Registry: telemetry.NewRegistry(),
		Rules:    []thicket.AlertRule{},
		History:  thicket.MonitorHistoryOptions{StorePath: path},
	})
	if err == nil || !strings.Contains(err.Error(), path) {
		t.Errorf("NewMonitor on a single-file store: err = %v, want one naming %s", err, path)
	}

	prevEnabled := thicket.EnableTelemetry(false)
	defer thicket.EnableTelemetry(prevEnabled)
	for flag, set := range map[string]func(*config){
		"-monitor-store":      func(c *config) { c.monitorStore = path },
		"-self-profile-store": func(c *config) { c.selfProfilePath = path },
	} {
		cfg := testConfig(writeStore(t))
		set(&cfg)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := serve(ctx, cfg, io.Discard); err == nil || !strings.Contains(err.Error(), path) {
			t.Errorf("serve with %s naming a single-file store: err = %v, want one naming %s", flag, err, path)
		}
	}
	if _, err := os.Stat(path + ".wal"); !os.IsNotExist(err) {
		t.Errorf("a refused store got a WAL (err=%v)", err)
	}

	st, err := thicket.OpenStore(path)
	if err != nil {
		t.Fatalf("refused store no longer opens: %v", err)
	}
	defer st.Close()
	th, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if n := th.NumProfiles(); n != 4 {
		t.Fatalf("refused store holds %d profiles, want 4", n)
	}
}

// TestServeIngestRefusesSingleFile: -ingest on a single-file store,
// which is written once, fails at startup with an error naming the
// store; no WAL appears and the file is left as it was.
func TestServeIngestRefusesSingleFile(t *testing.T) {
	path := writeStore(t)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(path)
	cfg.ingestEnabled = true
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = serve(ctx, cfg, io.Discard)
	if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "not a directory store") {
		t.Fatalf("serve -ingest on a single-file store: err = %v, want ingest's refusal naming %s", err, path)
	}
	if _, err := os.Stat(path + ".wal"); !os.IsNotExist(err) {
		t.Errorf("a refused store got a WAL (err=%v)", err)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(before, after) {
		t.Errorf("a refused store changed (err=%v)", err)
	}
}

// TestServeTraceOut drives serve with -trace-out on an already-cancelled
// context: the store load runs under telemetry, the server drains
// immediately, and shutdown must write both the Chrome trace and the
// native self-profile — which the library then loads and queries like
// any other input (the round trip the exporter exists for).
func TestServeTraceOut(t *testing.T) {
	prevEnabled := thicket.EnableTelemetry(false)
	defer thicket.EnableTelemetry(prevEnabled)

	cfg := testConfig(writeStore(t))
	cfg.traceOut = filepath.Join(t.TempDir(), "trace.json")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var sb strings.Builder
	if err := serve(ctx, cfg, &sb); err != nil {
		t.Fatalf("serve: %v\noutput:\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "wrote") {
		t.Errorf("serve output does not report trace export:\n%s", sb.String())
	}

	raw, err := os.ReadFile(cfg.traceOut)
	if err != nil {
		t.Fatalf("chrome trace not written: %v", err)
	}
	if !strings.Contains(string(raw), `"traceEvents":[{"name":`) ||
		!strings.Contains(string(raw), `"store.Load"`) {
		t.Errorf("chrome trace missing store.Load span:\n%.400s", raw)
	}

	profilePath := strings.TrimSuffix(cfg.traceOut, ".json") + ".profile.json"
	p, err := thicket.LoadProfile(profilePath)
	if err != nil {
		t.Fatalf("self-profile not loadable: %v", err)
	}
	th, err := thicket.FromProfiles([]*thicket.Profile{p}, thicket.Options{})
	if err != nil {
		t.Fatalf("self-profile does not compose: %v", err)
	}
	out, err := th.QueryString(". name == store.Load / *")
	if err != nil {
		t.Fatalf("call-path query over self-profile: %v", err)
	}
	if out.Tree.Len() < 2 {
		t.Errorf("query kept %d nodes; want store.Load plus its children", out.Tree.Len())
	}
}
