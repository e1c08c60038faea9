// Command thicket is the interactive CLI over profile ensembles: it loads
// thicket-profile JSON files from a directory and runs the paper's EDA
// verbs — metadata inspection, tree rendering, filtering, group-by,
// call-path queries, aggregated statistics, and Extra-P modeling.
//
// Usage:
//
//	thicket <subcommand> -dir profiles/ [flags]
//
// Subcommands:
//
//	metadata   print the metadata table           [-columns a,b,c]
//	perf       print the performance-data table   [-metrics a,b] [-max N]
//	tree       render the union call tree         [-metric name]
//	treetable  tree + aligned metric table        [-metrics a,b] [-agg mean]
//	stats      aggregated statistics              [-metrics a,b] [-aggs mean,std]
//	groupstats per-group aggregated statistics    -by a,b [-metrics ...] [-aggs ...]
//	pivot      node × metadata wide table         -metric m -by metaCol [-agg mean]
//	dot        Graphviz source of the call tree   [-metric name]
//	filter     filter profiles by metadata        -where "col=value,col2<=8" (=, !=, <, <=, >, >=)
//	explain    query plan for a -where filter     -where "..." [-analyze] (verdicts, prune %, stage times)
//	groupby    group profiles by metadata columns -by a,b
//	query      call-path query (DSL)              -q ". name == main / *"
//	summary    campaign summary                   -by a,b
//	model      Extra-P model per node             -metric m -param col [-node path]
//	model2     two-parameter Extra-P model        -metric m -param colP -param2 colQ [-node path]
//	imbalance  load-imbalance factors             -metric avgCol -maxmetric maxCol
//	hist       histogram of a metric at a node    -metric m -node path [-bins N]
//	box        box plots of a metric per group    -metric m -node path -by metaCol
//	describe   numeric summary of the perf table
//	export     write perf/meta/stats CSVs         -o dir
//	save       serialize the thicket object       -o file
//	convert    Caliper json-split → native        -caliper in.json -o out.json (no -dir needed)
//	compose    horizontal multi-tool composition  -dirs a,b -groups CPU,GPU -index-by col [-o out.json]
//	store      columnar ensemble store ops        store <create|append|info|ls> -store path.tks [-dir profiles/]
//	monitor    live self-monitoring view          monitor -target http://host:8080 [-window 5m] [-metrics go_,rate] [-watch]
//
// Profiles load from -dir (raw profile JSONs), -load (a serialized
// thicket object written by save), or -ensemble-store (a binary
// columnar store written by "thicket store create"). The HTTP query
// service over a store is the separate thicketd command.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"

	thicket "repro"
	"repro/internal/dataframe"
	"repro/internal/extrap"
	"repro/internal/profile"
	"repro/internal/viz"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "thicket:", err)
		os.Exit(1)
	}
}

// run executes one subcommand; split from main for testability. CLI
// errors raised deep in subcommand bodies unwind via a sentinel panic.
func run(args []string, w io.Writer) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if ce, ok := r.(cliError); ok {
				err = ce.err
				return
			}
			panic(r)
		}
	}()
	stdout = w
	if len(args) < 1 {
		usage()
		return fmt.Errorf("missing subcommand")
	}
	cmd := args[0]
	// store, ingest and monitor own their flag sets; dispatch before the
	// shared EDA flags are parsed.
	if cmd == "store" {
		storeCmd(args[1:])
		return
	}
	if cmd == "ingest" {
		ingestCmd(args[1:])
		return
	}
	if cmd == "monitor" {
		monitorCmd(args[1:])
		return
	}
	if !slices.Contains(subcommands, cmd) {
		usage()
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	caliperPath := fs.String("caliper", "", "Caliper json-split file to convert (convert subcommand)")
	dirsArg := fs.String("dirs", "", "comma-separated profile directories (compose subcommand)")
	groupsArg := fs.String("groups", "", "comma-separated group labels (compose subcommand)")
	dir := fs.String("dir", "", "directory of thicket-profile JSON files (required)")
	indexBy := fs.String("index-by", "", "metadata column to use as the profile index (default: metadata hash)")

	metricsArg := fs.String("metrics", "", "comma-separated metric columns")
	aggsArg := fs.String("aggs", "mean,std", "comma-separated aggregators")
	columnsArg := fs.String("columns", "", "comma-separated metadata columns to show")
	maxRows := fs.Int("max", 40, "maximum rows to print (0 = all)")
	metric := fs.String("metric", "", "metric name")
	where := fs.String("where", "", "comma-separated metadata filters col<op>value (=, !=, <, <=, >, >=)")
	analyze := fs.Bool("analyze", false, "explain: execute the query and report measured counts and stage times")
	by := fs.String("by", "", "comma-separated metadata columns")
	queryText := fs.String("q", "", "call-path query (DSL)")
	param := fs.String("param", "", "metadata column holding the model parameter")
	param2 := fs.String("param2", "", "second metadata parameter column (model2)")
	node := fs.String("node", "", "restrict output to one node path")
	agg := fs.String("agg", "mean", "aggregator for treetable")
	maxMetric := fs.String("maxmetric", "", "max-duration metric column (imbalance)")
	bins := fs.Int("bins", 8, "histogram bins")
	outPath := fs.String("o", "", "output file or directory (export/save)")
	loadPath := fs.String("load", "", "load a serialized thicket object instead of -dir")
	storePath := fs.String("ensemble-store", "", "load from a columnar ensemble store instead of -dir")
	traceOut := fs.String("trace-out", "", "self-profile: write collected telemetry spans as Chrome trace_event JSON here (plus a native .profile.json) on exit")

	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if *traceOut != "" {
		defer startTrace(*traceOut)()
	}
	if cmd == "convert" {
		convertCaliper(fs, *caliperPath)
		return
	}
	if cmd == "compose" {
		composeDirs(*dirsArg, *groupsArg, *indexBy, *outPath, *maxRows)
		return
	}
	var th *thicket.Thicket
	var st *thicket.Store // the store th came from, for where= plans
	switch {
	case *storePath != "":
		st = openStore(*storePath)
		defer st.Close()
		th, err = st.Load()
		if err != nil {
			fatal(err)
		}
	case *loadPath != "":
		// LoadThicket wraps failures with the offending path.
		th, err = thicket.LoadThicket(*loadPath)
		if err != nil {
			fatal(err)
		}
	case *dir != "":
		th = loadDirThicket(*dir, *indexBy)
	default:
		fatal(fmt.Errorf("-dir, -load, or -ensemble-store is required"))
	}
	if st == nil && (cmd == "filter" || cmd == "explain") {
		// where= plans run against a store: hold th as a one-segment
		// store in memory.
		if st, err = thicket.StoreFromThicket(th); err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(stdout, "loaded %d profiles, %d call-tree nodes, %d perf rows\n\n",
		th.NumProfiles(), th.Tree.Len(), th.PerfData.NRows())

	switch cmd {
	case "metadata":
		frame := th.Metadata
		if *columnsArg != "" {
			frame, err = frame.SelectColumns(splitKeys(*columnsArg))
			if err != nil {
				fatal(err)
			}
		}
		fmt.Fprint(stdout, frame.Render(dataframe.RenderOptions{MaxRows: *maxRows, HideRepeated: true}))
	case "perf":
		frame := th.PerfData
		if *metricsArg != "" {
			frame, err = frame.SelectColumns(splitKeys(*metricsArg))
			if err != nil {
				fatal(err)
			}
		}
		fmt.Fprint(stdout, th.RelabelledPerfData(frame).Render(dataframe.RenderOptions{MaxRows: *maxRows, HideRepeated: true}))
	case "tree":
		if *metric == "" {
			fmt.Fprint(stdout, th.Tree.Render(nil))
		} else {
			fmt.Fprint(stdout, th.TreeString(thicket.ColKey{*metric}))
		}
	case "treetable":
		var metrics []thicket.ColKey
		if *metricsArg != "" {
			metrics = splitKeys(*metricsArg)
		}
		out, err := th.TreeTableString(metrics, *agg)
		if err != nil {
			fatal(err)
		}
		fmt.Fprint(stdout, out)
	case "stats":
		var metrics []thicket.ColKey
		if *metricsArg != "" {
			metrics = splitKeys(*metricsArg)
		}
		if err := th.AggregateStats(metrics, strings.Split(*aggsArg, ",")); err != nil {
			fatal(err)
		}
		fmt.Fprint(stdout, th.RelabelledPerfData(th.Stats).Render(dataframe.RenderOptions{MaxRows: *maxRows, HideRepeated: true}))
	case "groupstats":
		if *by == "" {
			fatal(fmt.Errorf("-by is required"))
		}
		var metrics []thicket.ColKey
		if *metricsArg != "" {
			metrics = splitKeys(*metricsArg)
		}
		out, err := th.GroupedStats(strings.Split(*by, ","), metrics, strings.Split(*aggsArg, ","))
		if err != nil {
			fatal(err)
		}
		fmt.Fprint(stdout, th.RelabelledPerfData(out).Render(dataframe.RenderOptions{MaxRows: *maxRows, HideRepeated: true}))
	case "pivot":
		if *metric == "" || *by == "" {
			fatal(fmt.Errorf("pivot requires -metric and -by"))
		}
		table, err := th.PivotMetric(thicket.ColKey{*metric}, *by, *agg)
		if err != nil {
			fatal(err)
		}
		fmt.Fprint(stdout, th.RelabelledPerfData(table).Render(dataframe.RenderOptions{MaxRows: *maxRows, HideRepeated: true}))
	case "dot":
		var rm func(n *thicket.Node) (string, bool)
		if *metric != "" {
			// Annotate with mean across profiles.
			means, err := th.NodeMeans(thicket.ColKey{*metric})
			if err != nil {
				fatal(err)
			}
			rm = func(n *thicket.Node) (string, bool) {
				m, ok := means[n.PathString()]
				if !ok {
					return "", false
				}
				return fmt.Sprintf("%.4g", m), true
			}
		}
		fmt.Fprint(stdout, th.Tree.DOT("thicket", rm))
	case "filter":
		if *where == "" {
			fatal(fmt.Errorf("-where needs col=value (comma-separate for a conjunction; operators =, !=, <, <=, >, >=)"))
		}
		preds, err := thicket.CompilePredicates(strings.Split(*where, ","))
		if err != nil {
			fatal(err)
		}
		// The compiled path: zone maps skip non-matching segments before
		// any decode.
		filtered, ps, err := thicket.FilterStore(st, preds)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(stdout, "%d of %d profiles match %s\n", filtered.NumProfiles(), th.NumProfiles(), thicket.DescribePredicates(preds))
		fmt.Fprintf(stdout, "(%d/%d segments pruned, %d blocks skipped, %d scanned)\n",
			ps.SegmentsPruned, ps.Segments, ps.BlocksSkipped, ps.BlocksScanned)
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, filtered.Metadata.Render(dataframe.RenderOptions{MaxRows: *maxRows, HideRepeated: true}))
	case "explain":
		if *where == "" {
			fatal(fmt.Errorf("-where is required"))
		}
		preds, err := thicket.CompilePredicates(strings.Split(*where, ","))
		if err != nil {
			fatal(err)
		}
		// EXPLAIN plans from headers alone; -analyze executes and
		// reports measured block counts and stage times.
		var ex *thicket.QueryPlan
		if *analyze {
			_, ex, err = thicket.AnalyzeStore(st, preds)
		} else {
			ex, err = thicket.ExplainStore(st, preds)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Fprint(stdout, renderExplain(ex))
	case "groupby":
		if *by == "" {
			fatal(fmt.Errorf("-by is required"))
		}
		groups, err := th.GroupBy(strings.Split(*by, ",")...)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(stdout, "%d thickets created...\n", len(groups))
		for _, g := range groups {
			fmt.Fprintf(stdout, "\n(%s): %d profiles\n", dataframe.FormatKey(g.Key), g.Thicket.NumProfiles())
			fmt.Fprint(stdout, g.Thicket.Metadata.Render(dataframe.RenderOptions{MaxRows: 5, HideRepeated: true}))
		}
	case "query":
		if *queryText == "" {
			fatal(fmt.Errorf("-q is required"))
		}
		out, err := th.QueryString(*queryText)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(stdout, "query kept %d of %d nodes\n\n", out.Tree.Len(), th.Tree.Len())
		if *metric != "" {
			fmt.Fprint(stdout, out.TreeString(thicket.ColKey{*metric}))
		} else {
			fmt.Fprint(stdout, out.Tree.Render(nil))
		}
	case "summary":
		if *by == "" {
			fatal(fmt.Errorf("-by is required"))
		}
		sum, err := th.MetadataSummary(strings.Split(*by, ",")...)
		if err != nil {
			fatal(err)
		}
		fmt.Fprint(stdout, sum.String())
	case "model":
		if *metric == "" || *param == "" {
			fatal(fmt.Errorf("model requires -metric and -param"))
		}
		models, err := th.ModelExtrap(thicket.ColKey{*metric}, *param, extrap.Options{})
		if err != nil {
			fatal(err)
		}
		type row struct {
			node  string
			model string
			r2    float64
		}
		var rows []row
		for _, nm := range models {
			if *node != "" && nm.Node != *node {
				continue
			}
			if nm.Err != nil {
				continue
			}
			rows = append(rows, row{node: nm.Node, model: nm.Model.String(), r2: nm.Model.R2})
		}
		sort.Slice(rows, func(a, b int) bool { return rows[a].node < rows[b].node })
		for _, r := range rows {
			fmt.Fprintf(stdout, "%-60s %s   (R²=%.4f)\n", r.node, r.model, r.r2)
		}
	case "model2":
		if *metric == "" || *param == "" || *param2 == "" {
			fatal(fmt.Errorf("model2 requires -metric, -param, and -param2"))
		}
		models, err := th.ModelExtrap2(thicket.ColKey{*metric}, *param, *param2, extrap.Options2{})
		if err != nil {
			fatal(err)
		}
		for _, nm := range models {
			if *node != "" && nm.Node != *node {
				continue
			}
			if nm.Err != nil {
				continue
			}
			fmt.Fprintf(stdout, "%-60s %s   (R²=%.4f)\n", nm.Node, nm.Model, nm.Model.R2)
		}
	case "imbalance":
		if *metric == "" || *maxMetric == "" {
			fatal(fmt.Errorf("imbalance requires -metric (avg) and -maxmetric (max)"))
		}
		if err := th.LoadImbalance(thicket.ColKey{*maxMetric}, thicket.ColKey{*metric}); err != nil {
			fatal(err)
		}
		fmt.Fprint(stdout, th.RelabelledPerfData(th.Stats).Render(dataframe.RenderOptions{MaxRows: *maxRows, HideRepeated: true}))
	case "hist":
		if *metric == "" || *node == "" {
			fatal(fmt.Errorf("hist requires -metric and -node"))
		}
		vals, _, err := th.MetricVector(*node, thicket.ColKey{*metric})
		if err != nil {
			fatal(err)
		}
		out, err := viz.Histogram(vals, *bins, 40)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(stdout, "%s at %s (%d profiles)\n%s", *metric, *node, len(vals), out)
	case "describe":
		d, err := th.PerfData.Describe()
		if err != nil {
			fatal(err)
		}
		fmt.Fprint(stdout, d.String())
	case "box":
		if *metric == "" || *node == "" || *by == "" {
			fatal(fmt.Errorf("box requires -metric, -node, and -by"))
		}
		groups, err := th.GroupBy(strings.Split(*by, ",")...)
		if err != nil {
			fatal(err)
		}
		var series []viz.BoxSeries
		for _, g := range groups {
			vals, _, err := g.Thicket.MetricVector(*node, thicket.ColKey{*metric})
			if err != nil {
				continue
			}
			series = append(series, viz.BoxSeries{Label: dataframe.FormatKey(g.Key), Values: vals})
		}
		out, err := viz.BoxPlot(series, 50)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(stdout, "%s at %s by %s\n%s", *metric, *node, *by, out)
	case "export":
		if *outPath == "" {
			fatal(fmt.Errorf("export requires -o dir"))
		}
		if err := th.ExportCSV(*outPath); err != nil {
			fatal(err)
		}
		fmt.Fprintf(stdout, "wrote perf_data.csv, metadata.csv, stats.csv to %s\n", *outPath)
	case "save":
		if *outPath == "" {
			fatal(fmt.Errorf("save requires -o file"))
		}
		if err := th.Save(*outPath); err != nil {
			fatal(err)
		}
		fmt.Fprintf(stdout, "wrote %s\n", *outPath)
	default:
		usage()
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
	return nil
}

// composeDirs loads one thicket per directory and composes them
// horizontally under the given group labels (paper §3.2.2).
func composeDirs(dirsArg, groupsArg, indexBy, outPath string, maxRows int) {
	dirs := strings.Split(dirsArg, ",")
	groups := strings.Split(groupsArg, ",")
	if dirsArg == "" || groupsArg == "" || len(dirs) != len(groups) {
		fatal(fmt.Errorf("compose requires -dirs and -groups with matching counts"))
	}
	if indexBy == "" {
		fatal(fmt.Errorf("compose requires -index-by (thickets join on (node, index))"))
	}
	var thickets []*thicket.Thicket
	for _, d := range dirs {
		profiles, err := thicket.LoadProfileDir(strings.TrimSpace(d))
		if err != nil {
			fatal(err)
		}
		th, err := thicket.FromProfiles(profiles, thicket.Options{IndexBy: indexBy})
		if err != nil {
			fatal(err)
		}
		thickets = append(thickets, th)
	}
	composed, err := thicket.Compose(groups, thickets)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(stdout, "composed %d thickets: %d rows × %d columns under groups %v\n\n",
		len(thickets), composed.PerfData.NRows(), composed.PerfData.NCols(),
		composed.PerfData.ColIndex().Groups())
	fmt.Fprint(stdout, composed.RelabelledPerfData(composed.PerfData).Render(dataframe.RenderOptions{MaxRows: maxRows, HideRepeated: true}))
	if outPath != "" {
		if err := composed.Save(outPath); err != nil {
			fatal(err)
		}
		fmt.Fprintf(stdout, "\nwrote %s\n", outPath)
	}
}

// convertCaliper converts a Caliper json-split document into the native
// thicket-profile format.
func convertCaliper(fs *flag.FlagSet, caliperPath string) {
	outPath := ""
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "o" {
			outPath = f.Value.String()
		}
	})
	if caliperPath == "" || outPath == "" {
		fatal(fmt.Errorf("convert requires -caliper in.json and -o out.json"))
	}
	f, err := os.Open(caliperPath)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	p, err := profile.ReadCaliperJSON(f)
	if err != nil {
		fatal(err)
	}
	if err := p.Save(outPath); err != nil {
		fatal(err)
	}
	fmt.Fprintf(stdout, "converted %s (%d nodes, %d metadata keys) to %s\n",
		caliperPath, p.Tree().Len(), len(p.MetaKeys()), outPath)
}

func splitKeys(arg string) []thicket.ColKey {
	var out []thicket.ColKey
	for _, s := range strings.Split(arg, ",") {
		out = append(out, thicket.ColKey{strings.TrimSpace(s)})
	}
	return out
}

// subcommands lists every subcommand, in usage order.
var subcommands = []string{
	"metadata", "perf", "tree", "treetable", "stats", "filter", "explain",
	"groupby", "query", "summary", "model", "model2", "imbalance", "hist",
	"box", "groupstats", "pivot", "dot", "describe", "export", "save",
	"convert", "compose", "store", "ingest", "monitor",
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: thicket <%s> -dir profiles/ [flags]\nrun \"thicket <subcommand> -h\" for flags\n", strings.Join(subcommands, "|"))
}

// startTrace enables telemetry span collection and returns the export
// hook: it writes every span tree collected while the subcommand ran as
// Chrome trace_event JSON at path and as a native thicket profile
// alongside it — the CLI profiling itself with its own profile format.
func startTrace(path string) func() {
	thicket.EnableTelemetry(true)
	col := &thicket.TraceCollector{}
	prev := thicket.SetTraceCollector(col)
	return func() {
		thicket.SetTraceCollector(prev)
		thicket.EnableTelemetry(false)
		trees := col.Roots()
		if len(trees) == 0 {
			fmt.Fprintf(stdout, "\nno telemetry spans collected; %s not written\n", path)
			return
		}
		profilePath, err := thicket.SaveTrace(path, trees)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(stdout, "\nwrote %d span trees to %s and %s\n", len(trees), path, profilePath)
	}
}

// stdout is the destination for subcommand output (replaced in tests).
var stdout io.Writer = os.Stdout

type cliError struct{ err error }

// fatal aborts the current subcommand with an error; run() converts the
// unwind into a returned error (and main() prints it).
func fatal(err error) {
	panic(cliError{err: err})
}
