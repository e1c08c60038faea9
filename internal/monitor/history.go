package monitor

import (
	"log/slog"
	"strings"

	"repro/internal/dataframe"
	"repro/internal/profile"
	"repro/internal/selfprofile"
	"repro/internal/telemetry"
)

// Metadata columns on every stored monitor profile. Timestamps are
// monotonically increasing across samples, so the store's delta coding
// and zone maps make time-window queries (`where=timestamp>=...`)
// prune untouched segments.
const (
	MetaTimestamp    = "timestamp" // unix nanoseconds of the sample
	MetaTick         = "tick"      // sampler tick number (restart detector)
	MetaAlerts       = "alerts"    // comma-joined firing rule names, "" when quiet
	MetaAlertsFiring = "alerts_firing"
	MetaSource       = "source" // always "monitor"
)

// monitorNode is the single tree node every sample's metrics hang off.
const monitorNode = "monitor"

// maxDrain bounds the slow traces one drain exports, so a pathological
// interval cannot stall the tick.
const maxDrain = 64

// HistoryOptions configures the self-data stores.
type HistoryOptions struct {
	// StorePath is the directory store every sample streams into,
	// created on the first sample. A single-file store, which is written
	// once, is refused.
	StorePath string
	// TraceStorePath is the self-profile store: the directory store
	// every slow request trace that Options.Traces retained streams
	// into, one profile per trace, drained on each tick and on Close.
	// It is created on the first export, needs Options.Traces, and
	// refuses a single-file store too.
	TraceStorePath string
	// Meta is stamped on every stored profile of both stores (server
	// identity).
	Meta map[string]dataframe.Value
}

// historyWriter writes the monitor's self-data, each configured store
// through its own dogfood StoreWriter, whose ingester makes a profile
// durable in the store's WAL before Append returns. record turns each
// sample into a profile — metric names as perf columns on a single
// "monitor" node, alert state as metadata; drain turns each retained
// slow request trace into one (selfprofile.TraceProfile).
type historyWriter struct {
	meta map[string]dataframe.Value

	samples  *selfprofile.StoreWriter // nil without StorePath
	logger   *slog.Logger
	failures *telemetry.Counter

	traces   *selfprofile.StoreWriter // nil without TraceStorePath
	col      *telemetry.Collector
	traceLog *slog.Logger
	exported *telemetry.Counter
	failed   *telemetry.Counter
}

// newHistoryWriter opens the configured stores, if any, as
// selfprofile.NewStoreWriter does; col feeds the self-profile store.
func newHistoryWriter(opts HistoryOptions, col *telemetry.Collector, reg *telemetry.Registry, logger *slog.Logger) (*historyWriter, error) {
	h := &historyWriter{meta: opts.Meta, logger: logger}
	if opts.StorePath != "" {
		w, err := selfprofile.NewStoreWriter(opts.StorePath, reg, logger)
		if err != nil {
			return nil, err
		}
		h.samples = w
		h.failures = reg.Counter("thicket_monitor_flush_failures_total",
			"Monitor samples that failed to reach the monitor store.")
	}
	if opts.TraceStorePath != "" {
		w, err := selfprofile.NewStoreWriter(opts.TraceStorePath, reg, logger)
		if err != nil {
			if h.samples != nil {
				h.samples.Close()
			}
			return nil, err
		}
		h.traces, h.col = w, col
		h.traceLog = logger.With(telemetry.LogKeyComponent, "selfprofile", "path", opts.TraceStorePath)
		h.exported = reg.Counter("thicket_selfprofile_exported_total", "Slow traces exported to the self-profile store.")
		h.failed = reg.Counter("thicket_selfprofile_failed_total", "Slow-trace exports that failed.")
	}
	return h, nil
}

// record stores the sample taken at sampler tick tick. Store I/O happens
// outside the sampler lock.
func (h *historyWriter) record(sample Sample, tick int64, firing []string) {
	if h.samples == nil {
		return
	}
	prof := profile.New()
	prof.SetMeta(MetaTimestamp, dataframe.Int64(sample.UnixNS))
	prof.SetMeta(MetaTick, dataframe.Int64(tick))
	prof.SetMeta(MetaAlerts, dataframe.Str(strings.Join(firing, ",")))
	prof.SetMeta(MetaAlertsFiring, dataframe.Int64(int64(len(firing))))
	prof.SetMeta(MetaSource, dataframe.Str("monitor"))
	for k, v := range h.meta {
		prof.SetMeta(k, v)
	}
	metrics := make(map[string]dataframe.Value, len(sample.Values))
	for name, v := range sample.Values {
		metrics[name] = dataframe.Float64(v)
	}
	err := prof.AddSample([]string{monitorNode}, metrics)
	if err == nil {
		err = h.samples.Append(prof)
	}
	if err != nil {
		h.failures.Inc()
		h.logger.Error("monitor sample not stored",
			telemetry.LogKeyComponent, "monitor", "tick", tick, "error", err.Error())
	}
}

// drain exports the slow traces the collector retained since the last
// drain, at most maxDrain, one profile per trace. A trace that fails to
// export is counted and logged, and the drain goes on. Store I/O
// happens outside the sampler lock.
func (h *historyWriter) drain() {
	if h.traces == nil {
		return
	}
	n := 0
	for _, rt := range h.col.TakeSlow(maxDrain) {
		if rt.TraceID == "" {
			// Only request trees carry a trace ID. Every other root — the
			// drain's own store writes and the parallel dispatches they
			// open included — is background work; exporting the writers'
			// own writes would feed the store itself forever.
			continue
		}
		prof, err := selfprofile.TraceProfile(rt, h.meta)
		if err == nil {
			err = h.traces.Append(prof)
		}
		if err != nil {
			h.failed.Inc()
			h.traceLog.Error("self-profile export failed",
				telemetry.LogKeyTraceID, rt.TraceID, "error", err.Error())
			continue
		}
		h.exported.Inc()
		n++
	}
	if n > 0 {
		h.traceLog.Info("self-profile flush", "profiles", n)
	}
}

// close drains what no tick took, then closes both stores, flushing
// every profile their ingesters acked into a segment.
func (h *historyWriter) close() error {
	h.drain()
	var err error
	for _, w := range []*selfprofile.StoreWriter{h.samples, h.traces} {
		if w == nil {
			continue
		}
		if cerr := w.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
