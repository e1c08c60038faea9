package main

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-list"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "fig02") || !strings.Contains(out, "fig18") {
		t.Errorf("list output:\n%s", out)
	}
}

func TestRunOneFigureWithOutputs(t *testing.T) {
	dir := t.TempDir()
	htmlPath := filepath.Join(dir, "r.html")
	reportPath := filepath.Join(dir, "r.txt")
	svgDir := filepath.Join(dir, "figs")
	var sb strings.Builder
	err := run([]string{"-fig", "fig12", "-quiet",
		"-html", htmlPath, "-report", reportPath, "-out", svgDir}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "[PASS]") {
		t.Errorf("missing check output:\n%s", sb.String())
	}
	html, err := os.ReadFile(htmlPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(html), "<svg") {
		t.Error("HTML report missing inline SVGs")
	}
	if _, err := os.Stat(reportPath); err != nil {
		t.Error(err)
	}
	entries, err := os.ReadDir(svgDir)
	if err != nil || len(entries) == 0 {
		t.Errorf("no SVGs written: %v", err)
	}
	// fig12 writes three SVGs; the "wrote" lines come in name order.
	var wrote []string
	for _, line := range strings.Split(sb.String(), "\n") {
		if path, ok := strings.CutPrefix(line, "  wrote "); ok {
			wrote = append(wrote, filepath.Base(path))
		}
	}
	if len(wrote) != 3 || !sort.StringsAreSorted(wrote) {
		t.Errorf("wrote %v, want three SVG names in sorted order", wrote)
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-fig", "fig99"}, &sb); err == nil {
		t.Error("unknown figure must error")
	}
	if err := run([]string{"-bogus-flag"}, &sb); err == nil {
		t.Error("unknown flag must error")
	}
}
