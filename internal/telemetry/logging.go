package telemetry

import (
	"io"
	"log/slog"
)

// Canonical structured-log field names shared by every component
// (server request logs, store events, thicketd lifecycle, the
// monitor's self-data writers). The golden log-schema test pins these — renaming one
// fails loudly.
const (
	LogKeyComponent = "component"
	LogKeyTraceID   = "trace_id"
	LogKeySpanID    = "span_id"
	LogKeyMethod    = "method"
	LogKeyEndpoint  = "endpoint"
	LogKeyQuery     = "query"
	LogKeyStatus    = "status"
	LogKeyLatencyUS = "latency_us"
)

// NewJSONLogger returns a slog.Logger emitting one JSON object per
// line to w at the given level — the structured logging layer every
// thicket component shares. Time renders under the standard "time" key
// in RFC 3339 format (slog's default).
func NewJSONLogger(w io.Writer, level slog.Leveler) *slog.Logger {
	return slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: level}))
}

// NewDeterministicJSONLogger is NewJSONLogger with the volatile "time"
// attribute stripped, so identical records render to identical bytes —
// the handler behind the golden log-schema test.
func NewDeterministicJSONLogger(w io.Writer, level slog.Leveler) *slog.Logger {
	return slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{
		Level: level,
		ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
			if len(groups) == 0 && a.Key == slog.TimeKey {
				return slog.Attr{}
			}
			return a
		},
	}))
}
