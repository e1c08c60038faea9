package store

import (
	"log/slog"
	"sync/atomic"

	"repro/internal/telemetry"
)

// storeLog is the package's structured event logger. Stores are opened
// from many call sites (CLI, thicketd, the self-data writers), so the
// logger is process-wide rather than per-Store; the default discards.
var storeLog atomic.Pointer[slog.Logger]

// SetLogger directs store events (create, open, append) to logger; nil
// restores the default silent logger. Records carry
// telemetry.LogKeyComponent = "store" plus the store path.
func SetLogger(logger *slog.Logger) {
	if logger == nil {
		storeLog.Store(nil)
		return
	}
	storeLog.Store(logger.With(telemetry.LogKeyComponent, "store"))
}

// logEvent emits one structured store event when a logger is installed.
func logEvent(msg string, args ...any) {
	if l := storeLog.Load(); l != nil {
		l.Info(msg, args...)
	}
}
