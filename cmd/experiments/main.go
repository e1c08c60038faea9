// Command experiments regenerates the paper's tables and figures
// (Figures 2–18) from the synthetic ensembles, printing each experiment's
// report and its qualitative checks, and optionally writing the SVG
// renderings to a directory.
//
// Usage:
//
//	experiments [-fig figNN|all] [-seed N] [-out dir] [-list] [-quiet]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/experiments"
	reportpkg "repro/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run executes the tool; split from main for testability.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fig := fs.String("fig", "all", "experiment id (fig02..fig18) or \"all\"")
	seed := fs.Int64("seed", 1, "RNG seed for the synthetic ensembles")
	out := fs.String("out", "", "directory to write SVG figures into (omit to skip)")
	report := fs.String("report", "", "file to write the full text reports into (omit to skip)")
	htmlPath := fs.String("html", "", "file to write a self-contained HTML report into (omit to skip)")
	list := fs.Bool("list", false, "list experiment ids and exit")
	quiet := fs.Bool("quiet", false, "print only check outcomes, not full reports")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, e := range experiments.Registry() {
			fmt.Fprintf(stdout, "%s  %s\n", e.ID, e.Title)
		}
		return nil
	}

	var results []*experiments.Result
	if *fig == "all" {
		all, err := experiments.RunAll(*seed)
		if err != nil {
			return err
		}
		results = all
	} else {
		res, err := experiments.Run(*fig, *seed)
		if err != nil {
			return err
		}
		results = []*experiments.Result{res}
	}

	var reportSink *os.File
	if *report != "" {
		f, err := os.Create(*report)
		if err != nil {
			return err
		}
		defer f.Close()
		reportSink = f
	}
	failures := 0
	for _, res := range results {
		fmt.Fprintf(stdout, "──── %s: %s ────\n", res.ID, res.Title)
		if !*quiet {
			fmt.Fprintln(stdout, res.Report)
		}
		fmt.Fprint(stdout, res.Summary())
		if reportSink != nil {
			fmt.Fprintf(reportSink, "──── %s: %s ────\n%s\n%s\n", res.ID, res.Title, res.Report, res.Summary())
		}
		if !res.Passed() {
			failures++
		}
		if *out != "" {
			if err := os.MkdirAll(*out, 0o755); err != nil {
				return err
			}
			names := make([]string, 0, len(res.SVGs))
			for name := range res.SVGs {
				names = append(names, name)
			}
			sort.Strings(names) // the HTML report's order too
			for _, name := range names {
				path := filepath.Join(*out, name)
				if err := os.WriteFile(path, []byte(res.SVGs[name]), 0o644); err != nil {
					return err
				}
				fmt.Fprintf(stdout, "  wrote %s\n", path)
			}
		}
		fmt.Fprintln(stdout)
	}
	if *htmlPath != "" {
		doc, err := reportpkg.HTML("Thicket (HPDC '23) reproduction — every table and figure", results)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*htmlPath, []byte(doc), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *htmlPath)
	}
	if failures > 0 {
		return fmt.Errorf("%d experiment(s) with failing checks", failures)
	}
	return nil
}
