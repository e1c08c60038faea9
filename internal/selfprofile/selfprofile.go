// Package selfprofile closes thicketd's dogfood loop: slow traces
// retained by the telemetry Collector's tail sampler are periodically
// exported as native thicket profiles and appended to a dedicated
// ensemble store. Each retained request trace becomes one profile whose
// metadata rows carry the request identity (endpoint, trace ID,
// wall-clock timestamp, HTTP status), so `thicket query` and
// `thicket serve` can run the same exploratory analysis over the
// server's own performance forest as over any Caliper-style ensemble.
package selfprofile

import (
	"context"
	"fmt"
	"log/slog"
	"time"

	"repro/internal/dataframe"
	"repro/internal/profile"
	"repro/internal/telemetry"
)

// Default knobs.
const (
	DefaultInterval    = 30 * time.Second
	DefaultMaxPerFlush = 64
)

// Metadata columns stamped on every exported profile, next to the
// "source" column FromTraceNodes always writes.
const (
	MetaEndpoint  = "endpoint"
	MetaTraceID   = "trace_id"
	MetaTimestamp = "timestamp" // unix nanoseconds of the trace's end
	MetaStatus    = "status"    // HTTP status of the root request, -1 if unknown
	MetaReason    = "reason"    // retention reason (always "slow" today)
	MetaDurNS     = "dur_ns"
	MetaSeq       = "seq" // collector sequence number (eviction-gap detector)

	// Plan-efficiency columns, lifted from the ExecStats attrs the
	// server stamps on compiled where= requests; -1 when the request
	// ran no compiled plan. They make the dogfood store answerable for
	// "which slow queries scanned the most blocks?".
	MetaPlanBlocksScanned    = "plan_blocks_scanned"
	MetaPlanBlocksSkipped    = "plan_blocks_skipped"
	MetaPlanSegmentsPruned   = "plan_segments_pruned"
	MetaPlanRowsMaterialized = "plan_rows_materialized"
)

// Options configures a Profiler.
type Options struct {
	// StorePath is the ensemble store file to create or append to.
	StorePath string
	// Collector supplies the retained slow traces (TakeSlow feed).
	Collector *telemetry.Collector
	// Interval paces Run. 0 selects DefaultInterval.
	Interval time.Duration
	// MaxPerFlush bounds the traces drained per flush so one pathological
	// interval cannot stall the server. 0 selects DefaultMaxPerFlush.
	MaxPerFlush int
	// Meta is stamped on every exported profile (server identity such as
	// addr or store path). Keys here win over the per-trace columns.
	Meta map[string]dataframe.Value
	// Logger receives structured flush events. Nil discards them.
	Logger *slog.Logger
	// Registry hosts the exporter's counters. Nil selects telemetry.Default.
	Registry *telemetry.Registry
}

// Profiler drains slow traces into the self-profile store.
type Profiler struct {
	opts     Options
	writer   *StoreWriter
	exported *telemetry.Counter
	failed   *telemetry.Counter
}

// New validates opts and returns a Profiler. The store file is not
// touched until the first flush that has traces to export, so enabling
// self-profiling on an idle healthy server writes nothing.
func New(opts Options) (*Profiler, error) {
	if opts.StorePath == "" {
		return nil, fmt.Errorf("selfprofile: store path required")
	}
	if opts.Collector == nil {
		return nil, fmt.Errorf("selfprofile: collector required")
	}
	if opts.Interval <= 0 {
		opts.Interval = DefaultInterval
	}
	if opts.MaxPerFlush <= 0 {
		opts.MaxPerFlush = DefaultMaxPerFlush
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.DiscardHandler)
	}
	opts.Logger = opts.Logger.With(telemetry.LogKeyComponent, "selfprofile")
	reg := opts.Registry
	if reg == nil {
		reg = telemetry.Default
	}
	return &Profiler{
		opts:     opts,
		writer:   NewStoreWriter(opts.StorePath, opts.Logger),
		exported: reg.Counter("thicket_selfprofile_exported_total", "Slow traces exported to the self-profile store."),
		failed:   reg.Counter("thicket_selfprofile_failed_total", "Slow-trace exports that failed."),
	}, nil
}

// Run flushes every Interval until ctx is cancelled, then flushes one
// final time so shutdown never drops the retained tail.
func (p *Profiler) Run(ctx context.Context) {
	t := time.NewTicker(p.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			p.flushLogged()
			return
		case <-t.C:
			p.flushLogged()
		}
	}
}

func (p *Profiler) flushLogged() {
	n, err := p.Flush()
	if err != nil {
		p.opts.Logger.Error("self-profile flush failed", "error", err.Error())
	} else if n > 0 {
		p.opts.Logger.Info("self-profile flush",
			"profiles", n, "path", p.opts.StorePath)
	}
}

// Flush drains unexported slow traces from the collector and appends
// one profile per trace to the store, creating it on first use. It
// returns the number of profiles appended.
func (p *Profiler) Flush() (int, error) {
	traces := p.opts.Collector.TakeSlow(p.opts.MaxPerFlush)
	if len(traces) == 0 {
		return 0, nil
	}
	profiles := make([]*profile.Profile, 0, len(traces))
	for _, rt := range traces {
		if rt.TraceID == "" {
			// Only request trees carry a trace ID. Every other root — the
			// flush's own store writes and the parallel dispatches they
			// open included — is background work; exporting the
			// profiler's own writes would feed it itself forever.
			continue
		}
		prof, err := p.export(rt)
		if err != nil {
			// A malformed tree must not poison the batch: count, log, go on.
			p.failed.Inc()
			p.opts.Logger.Error("self-profile export failed",
				telemetry.LogKeyTraceID, rt.TraceID, "error", err.Error())
			continue
		}
		profiles = append(profiles, prof)
	}
	if len(profiles) == 0 {
		return 0, nil // everything was self-traffic or failed and logged
	}

	if err := p.writer.Append(profiles); err != nil {
		p.failed.Add(int64(len(profiles)))
		return 0, err
	}
	p.exported.Add(int64(len(profiles)))
	return len(profiles), nil
}

// export converts one retained trace into a native profile with the
// request-identity metadata columns.
func (p *Profiler) export(rt telemetry.RetainedTrace) (*profile.Profile, error) {
	intAttrs := map[string]int64{
		"status":                 -1,
		MetaPlanBlocksScanned:    -1,
		MetaPlanBlocksSkipped:    -1,
		MetaPlanSegmentsPruned:   -1,
		MetaPlanRowsMaterialized: -1,
	}
	for _, a := range rt.Root.Attrs {
		if v, ok := intAttrs[a.Key]; ok && v == -1 {
			fmt.Sscanf(a.Value, "%d", &v)
			intAttrs[a.Key] = v
		}
	}
	end := telemetry.EpochWall().Add(time.Duration(rt.Root.EndNS))
	meta := map[string]dataframe.Value{
		MetaEndpoint:             dataframe.Str(rt.Root.Name),
		MetaTraceID:              dataframe.Str(rt.TraceID),
		MetaTimestamp:            dataframe.Int64(end.UnixNano()),
		MetaStatus:               dataframe.Int64(intAttrs["status"]),
		MetaReason:               dataframe.Str(rt.Reason),
		MetaDurNS:                dataframe.Int64(rt.DurNS),
		MetaSeq:                  dataframe.Int64(int64(rt.Seq)),
		MetaPlanBlocksScanned:    dataframe.Int64(intAttrs[MetaPlanBlocksScanned]),
		MetaPlanBlocksSkipped:    dataframe.Int64(intAttrs[MetaPlanBlocksSkipped]),
		MetaPlanSegmentsPruned:   dataframe.Int64(intAttrs[MetaPlanSegmentsPruned]),
		MetaPlanRowsMaterialized: dataframe.Int64(intAttrs[MetaPlanRowsMaterialized]),
	}
	for k, v := range p.opts.Meta {
		meta[k] = v
	}
	return profile.FromTraceNodes([]*telemetry.TraceNode{rt.Root}, meta)
}

// Close flushes the retained tail and releases the store handle. Safe
// to call when no flush ever opened the store.
func (p *Profiler) Close() error {
	_, ferr := p.Flush()
	if cerr := p.writer.Close(); cerr != nil && ferr == nil {
		ferr = cerr
	}
	return ferr
}

// StorePath returns the configured store path.
func (p *Profiler) StorePath() string { return p.opts.StorePath }
