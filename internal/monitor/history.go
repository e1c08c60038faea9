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

// HistoryOptions configures the monitor store.
type HistoryOptions struct {
	// StorePath is the directory store every sample streams into,
	// created on the first sample. A single-file store, which is written
	// once, is refused.
	StorePath string
	// Meta is stamped on every stored profile (server identity).
	Meta map[string]dataframe.Value
}

// historyWriter turns each sample into a profile — metric names as perf
// columns on a single "monitor" node, alert state as metadata — and
// appends it through the shared dogfood StoreWriter, whose ingester
// makes it durable in the store's WAL before record returns.
type historyWriter struct {
	meta     map[string]dataframe.Value
	writer   *selfprofile.StoreWriter
	logger   *slog.Logger
	failures *telemetry.Counter
}

func newHistoryWriter(opts HistoryOptions, reg *telemetry.Registry, logger *slog.Logger) (*historyWriter, error) {
	w, err := selfprofile.NewStoreWriter(opts.StorePath, reg, logger)
	if err != nil {
		return nil, err
	}
	return &historyWriter{
		meta:   opts.Meta,
		writer: w,
		logger: logger,
		failures: reg.Counter("thicket_monitor_flush_failures_total",
			"Monitor samples that failed to reach the monitor store."),
	}, nil
}

// record stores the sample taken at sampler tick tick. Store I/O happens
// outside the sampler lock.
func (h *historyWriter) record(sample Sample, tick int64, firing []string) {
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
		err = h.writer.Append(prof)
	}
	if err != nil {
		h.failures.Inc()
		h.logger.Error("monitor sample not stored",
			telemetry.LogKeyComponent, "monitor", "tick", tick, "error", err.Error())
	}
}
