package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/ingest"
	"repro/internal/loadgen"
)

// TestE2EIngestQuery drives the ingest-query mix end-to-end: profiles
// stream over POST /ingest through the WAL and L0 flushes while query
// traffic keeps being served from the same store. The contract under
// ingest burst: queries never starve (zero errors), every submission is
// either durably acked or deliberately shed with 429, and the pipeline
// surfaces its state in /metrics.
func TestE2EIngestQuery(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e needs seconds of replay")
	}
	host, err := loadgen.StartSelfHost(loadgen.SelfHostOptions{
		ScratchDir: t.TempDir(),
		Seed:       11,
		// Aggressive flush + compaction so the run exercises the whole
		// segment lifecycle, not just the WAL.
		Ingest: ingest.Options{
			FlushProfiles:   2,
			FlushInterval:   50 * time.Millisecond,
			CompactRun:      3,
			CompactInterval: 100 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()

	spec := loadgen.Spec{
		Seed:     11,
		Duration: 4 * time.Second,
		Classes:  []loadgen.SLOClass{{Name: "default"}},
		Clients: []loadgen.ClientSpec{{
			Name:     "ingest-query",
			Class:    "default",
			Arrival:  loadgen.ArrivalSpec{Kind: loadgen.ArrivalPoisson, RatePerSec: 120},
			Workload: loadgen.WorkloadIngestQuery,
		}},
	}
	sched, err := loadgen.BuildSchedule(spec)
	if err != nil {
		t.Fatal(err)
	}
	m, err := loadgen.Run(context.Background(), sched, host.Target(16, nil))
	if err != nil {
		t.Fatal(err)
	}
	rep := loadgen.BuildReport(sched, m)
	if _, err := host.Annotate(rep); err != nil {
		t.Fatal(err)
	}

	cs := rep.Measured.Classes["default"]
	if cs.Ingests == 0 {
		t.Fatal("ingest-query mix produced no ingest events")
	}
	queries := cs.Requests - cs.Ingests
	if queries == 0 {
		t.Fatal("ingest-query mix produced no queries")
	}
	if rep.Measured.Errors != 0 {
		t.Fatalf("queries starved or ingests failed: %d errors", rep.Measured.Errors)
	}

	// Conservation: every submission was durably acked or shed with 429.
	// The self-profile store's ingester acks in the same registry, so
	// its series is left out of the served store's count.
	acked := host.Registry.SumCounter("thicket_ingest_acked_total") -
		host.Registry.Counter("thicket_ingest_acked_total", "", "store", host.SelfProfilePath()).Value()
	if got := int(acked) + cs.IngestShed; got != cs.Ingests {
		t.Errorf("acked %d + shed %d != ingested %d", acked, cs.IngestShed, cs.Ingests)
	}
	if flushes := host.Registry.SumCounter("thicket_ingest_l0_flushes_total"); flushes == 0 {
		t.Error("no L0 flushes despite streamed profiles")
	}

	// The ingested profiles became queryable: /api/info reflects the
	// grown store once the last batch flushes.
	deadline := time.Now().Add(5 * time.Second)
	seedProfiles := 12 // 2 clusters x {1,2,4} nodes x 2 trials
	for {
		resp, err := http.Get(host.URL + "/api/info")
		if err != nil {
			t.Fatal(err)
		}
		var info struct {
			Profiles int `json:"profiles"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if info.Profiles == seedProfiles+int(acked) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("store has %d profiles, want %d (seed %d + acked %d)",
				info.Profiles, seedProfiles+int(acked), seedProfiles, acked)
		}
		time.Sleep(25 * time.Millisecond)
	}

	// The pipeline's state is observable: queue depth and compaction
	// backlog gauges, WAL counters.
	resp, err := http.Get(host.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, name := range []string{
		"thicket_ingest_queue_depth",
		"thicket_compaction_backlog_segments",
		"thicket_wal_records_total",
		"thicket_wal_fsyncs_total",
	} {
		if !strings.Contains(string(metrics), name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
	if host.Registry.SumCounter("thicket_compactions_total") == 0 {
		t.Error("no background compaction ran despite CompactRun=3 and many flushes")
	}
}
