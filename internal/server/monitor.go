package server

import (
	"fmt"
	"net/http"
	"runtime/debug"
	"sync"
	"time"
)

// handleDebugMonitor exposes the self-monitoring ring as windowed JSON
// series. ?window=30s restricts to the trailing window (default: the
// whole ring); ?metrics=heap,gc keeps only series whose name contains
// one of the comma-separated substrings.
func (s *Server) handleDebugMonitor(w http.ResponseWriter, r *http.Request) {
	m := s.opts.Monitor
	if m == nil {
		writeJSON(w, http.StatusOK, map[string]any{"enabled": false})
		return
	}
	var window time.Duration
	if raw := r.URL.Query().Get("window"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil || d < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad ?window=%q", raw))
			return
		}
		window = d
	}
	writeJSON(w, http.StatusOK, m.Window(window, splitArg(r, "metrics")))
}

// handleDebugAlerts exposes the rules engine: every rule's definition
// and firing state (with each baseline rule's per-target latency
// baselines), the currently-firing set, and the recent transition log.
func (s *Server) handleDebugAlerts(w http.ResponseWriter, r *http.Request) {
	m := s.opts.Monitor
	if m == nil {
		writeJSON(w, http.StatusOK, map[string]any{"enabled": false})
		return
	}
	writeJSON(w, http.StatusOK, m.Alerts())
}

// buildInfo holds deploy-identifying fields from the binary's embedded
// build info: the main module version and, when the binary was built
// from a VCS checkout, the revision and dirty flag. Test binaries carry
// neither, so every field degrades to its zero value. It is read once;
// the map is shared by every /healthz answer, read-only.
var buildInfo = sync.OnceValue(func() map[string]any {
	out := map[string]any{"version": "", "revision": "", "dirty": false}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return out
	}
	out["version"] = bi.Main.Version
	for _, kv := range bi.Settings {
		switch kv.Key {
		case "vcs.revision":
			out["revision"] = kv.Value
		case "vcs.modified":
			out["dirty"] = kv.Value == "true"
		}
	}
	return out
})
