package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/monitor"
)

// monitorCmd implements `thicket monitor` — a live top-like view over a
// running thicketd's /debug/monitor and /debug/alerts endpoints:
//
//	monitor -target http://host:8080                      one-shot snapshot
//	monitor -target ... -window 5m -metrics go_,rate      restrict series
//	monitor -target ... -watch [-every 2s]                refreshing view
//
// The header echoes the server's /healthz build identity (version,
// revision, dirty, go version, uptime); the body is one row per series
// with last/min/mean/max over the window and a sparkline of the ring.
func monitorCmd(args []string) {
	fs := flag.NewFlagSet("monitor", flag.ContinueOnError)
	target := fs.String("target", "", "base URL of a running thicketd (required)")
	window := fs.Duration("window", 0, "restrict series to this much trailing history (0 = whole ring)")
	metricsArg := fs.String("metrics", "", "comma-separated substrings; keep only matching series")
	watch := fs.Bool("watch", false, "refresh continuously instead of one snapshot")
	every := fs.Duration("every", 2*time.Second, "refresh interval for -watch")
	if err := fs.Parse(args); err != nil {
		fatal(err)
	}
	if *target == "" {
		fatal(fmt.Errorf("monitor requires -target http://host:port"))
	}
	base := strings.TrimRight(*target, "/")
	client := &http.Client{Timeout: 10 * time.Second}

	for {
		out, err := renderMonitor(client, base, *window, *metricsArg)
		if err != nil {
			fatal(err)
		}
		if *watch {
			// ANSI clear + home, so the refreshed table overdraws in place.
			fmt.Fprint(stdout, "\x1b[2J\x1b[H")
		}
		fmt.Fprint(stdout, out)
		if !*watch {
			return
		}
		time.Sleep(*every)
	}
}

// monitorHealth is the subset of /healthz the monitor header shows.
type monitorHealth struct {
	Status        string            `json:"status"`
	Build         map[string]any    `json:"build"`
	GoVersion     string            `json:"go_version"`
	UptimeSeconds int64             `json:"uptime_seconds"`
	Store         map[string]any    `json:"store"`
	Extra         map[string]string `json:"-"`
}

// renderMonitor fetches healthz + monitor + alerts and renders one frame.
func renderMonitor(client *http.Client, base string, window time.Duration, metricsArg string) (string, error) {
	var health monitorHealth
	if err := fetchJSON(client, base+"/healthz", &health); err != nil {
		return "", err
	}
	q := url.Values{}
	if window > 0 {
		q.Set("window", window.String())
	}
	if metricsArg != "" {
		q.Set("metrics", metricsArg)
	}
	monURL := base + "/debug/monitor"
	if len(q) > 0 {
		monURL += "?" + q.Encode()
	}
	var win monitor.WindowSnapshot
	if err := fetchJSON(client, monURL, &win); err != nil {
		return "", err
	}
	var alerts monitor.AlertsSnapshot
	if err := fetchJSON(client, base+"/debug/alerts", &alerts); err != nil {
		return "", err
	}

	var b strings.Builder
	version, revision := "", ""
	dirty := false
	if health.Build != nil {
		version, _ = health.Build["version"].(string)
		revision, _ = health.Build["revision"].(string)
		dirty, _ = health.Build["dirty"].(bool)
	}
	if len(revision) > 12 {
		revision = revision[:12]
	}
	dirtyMark := ""
	if dirty {
		dirtyMark = "+dirty"
	}
	fmt.Fprintf(&b, "thicketd %s  version=%s revision=%s%s %s  up %s\n",
		base, orDash(version), orDash(revision), dirtyMark,
		health.GoVersion, (time.Duration(health.UptimeSeconds) * time.Second).String())
	if !win.Enabled {
		b.WriteString("self-monitoring disabled on this server (-monitor-interval < 0)\n")
		return b.String(), nil
	}
	fmt.Fprintf(&b, "interval %gs  ticks %d  ring %d samples  window %gs  series %d\n\n",
		win.IntervalS, win.Ticks, win.Samples, win.WindowS, len(win.Series))

	names := make([]string, 0, len(win.Series))
	width := len("METRIC")
	for name := range win.Series {
		names = append(names, name)
		if len(name) > width {
			width = len(name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(&b, "%-*s  %10s  %10s  %10s  %10s  %s\n",
		width, "METRIC", "LAST", "MIN", "MEAN", "MAX", "SPARK")
	for _, name := range names {
		ser := win.Series[name]
		fmt.Fprintf(&b, "%-*s  %10s  %10s  %10s  %10s  %s\n",
			width, name,
			fmtVal(ser.Last), fmtVal(ser.Min), fmtVal(ser.Mean), fmtVal(ser.Max),
			sparkline(ser.Points, 32))
	}

	b.WriteString("\n")
	if len(alerts.Firing) > 0 {
		fmt.Fprintf(&b, "ALERTS FIRING: %s\n", strings.Join(alerts.Firing, ", "))
	} else if alerts.Enabled {
		fmt.Fprintf(&b, "alerts: none firing (%d rules)\n", len(alerts.Rules))
	}
	if n := len(alerts.Transitions); n > 0 {
		b.WriteString("recent transitions:\n")
		first := n - 5
		if first < 0 {
			first = 0
		}
		for _, tr := range alerts.Transitions[first:] {
			state := "resolved"
			if tr.Firing {
				state = "firing"
			}
			rule := tr.Rule
			if tr.Target != "" {
				rule += " " + tr.Target
			}
			fmt.Fprintf(&b, "  %s  %-8s %s (value %s, tick %d)\n",
				time.Unix(0, tr.UnixNS).UTC().Format(time.RFC3339),
				state, rule, fmtVal(tr.Value), tr.Tick)
		}
	}
	return b.String(), nil
}

// fetchJSON GETs url and decodes the body into out.
func fetchJSON(client *http.Client, url string, out any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: server answered %d: %s", url, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("%s: %w", url, err)
	}
	return nil
}

// sparkBlocks are the eight sparkline levels, lowest first.
var sparkBlocks = []rune("▁▂▃▄▅▆▇█")

// sparkline renders the series as at most width block characters,
// min-max normalised; longer series downsample by bucket mean.
func sparkline(points []monitor.SeriesPoint, width int) string {
	if len(points) == 0 {
		return ""
	}
	vals := make([]float64, len(points))
	for i, p := range points {
		vals[i] = p.Value
	}
	if len(vals) > width {
		down := make([]float64, width)
		for i := 0; i < width; i++ {
			lo, hi := i*len(vals)/width, (i+1)*len(vals)/width
			if hi == lo {
				hi = lo + 1
			}
			sum := 0.0
			for _, v := range vals[lo:hi] {
				sum += v
			}
			down[i] = sum / float64(hi-lo)
		}
		vals = down
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for _, v := range vals {
		level := 0
		if hi > lo {
			level = int((v - lo) / (hi - lo) * float64(len(sparkBlocks)-1))
		}
		b.WriteRune(sparkBlocks[level])
	}
	return b.String()
}

// fmtVal prints a metric value compactly (4 significant digits).
func fmtVal(v float64) string {
	return strconv.FormatFloat(v, 'g', 4, 64)
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
