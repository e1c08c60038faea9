package main

import (
	"flag"
	"fmt"

	thicket "repro"
	"repro/internal/dataframe"
)

// storeCmd implements `thicket store <action>` over the binary columnar
// ensemble store:
//
//	store create -store out.tks -dir profiles/ [-index-by col]
//	store append -store out.tks -dir more-profiles/
//	store info   -store out.tks
//	store ls     -store out.tks [-max N]
//
// create writes a directory store, which append grows one segment file
// and one manifest swap at a time. info and ls also read a single-file
// store (thicket.CreateStore), which is written once and refuses append.
func storeCmd(args []string) {
	if len(args) < 1 {
		fatal(fmt.Errorf("store requires an action: create, append, info, or ls"))
	}
	action := args[0]
	fs := flag.NewFlagSet("store "+action, flag.ContinueOnError)
	storePath := fs.String("store", "", "path of the ensemble store: a directory store, or a single-file store to read (required)")
	dir := fs.String("dir", "", "directory of thicket-profile JSON files (create/append)")
	indexBy := fs.String("index-by", "", "metadata column to use as the profile index (create)")
	maxRows := fs.Int("max", 40, "maximum rows to print (0 = all)")
	if err := fs.Parse(args[1:]); err != nil {
		fatal(err)
	}
	if *storePath == "" {
		fatal(fmt.Errorf("store %s requires -store <file>", action))
	}
	switch action {
	case "create":
		if *dir == "" {
			fatal(fmt.Errorf("store create requires -dir profiles/"))
		}
		th := loadDirThicket(*dir, *indexBy)
		if err := thicket.CreateDirStore(*storePath, th); err != nil {
			fatal(err)
		}
		st := openStore(*storePath)
		defer st.Close()
		info := st.Info()
		fmt.Fprintf(stdout, "created %s: %d profiles, %d nodes, %d perf rows, %d bytes\n",
			*storePath, info.Profiles, info.Nodes, info.PerfRows, info.FileBytes)
	case "append":
		if *dir == "" {
			fatal(fmt.Errorf("store append requires -dir profiles/"))
		}
		profiles, err := thicket.LoadProfileDir(*dir)
		if err != nil {
			fatal(err)
		}
		st := openStore(*storePath)
		defer st.Close()
		before := st.Info()
		if err := st.AppendProfiles(profiles); err != nil {
			fatal(err)
		}
		info := st.Info()
		fmt.Fprintf(stdout, "appended %d profiles to %s: now %d profiles in %d segments, %d bytes (+%d)\n",
			info.Profiles-before.Profiles, *storePath, info.Profiles, info.Segments,
			info.FileBytes, info.FileBytes-before.FileBytes)
	case "info":
		st := openStore(*storePath)
		defer st.Close()
		info := st.Info()
		fmt.Fprintf(stdout, "%s\n", info.Path)
		fmt.Fprintf(stdout, "  file bytes:    %d\n", info.FileBytes)
		fmt.Fprintf(stdout, "  segments:      %d\n", info.Segments)
		fmt.Fprintf(stdout, "  profiles:      %d (indexed by %s)\n", info.Profiles, info.ProfileLevel)
		fmt.Fprintf(stdout, "  tree nodes:    %d\n", info.Nodes)
		fmt.Fprintf(stdout, "  perf rows:     %d\n", info.PerfRows)
		fmt.Fprintf(stdout, "  perf columns:\n")
		for _, c := range info.PerfColumns {
			fmt.Fprintf(stdout, "    %-40s %-8s %d bytes\n", c.Key, c.Kind, c.Bytes)
		}
		fmt.Fprintf(stdout, "  meta columns:\n")
		for _, c := range info.MetaColumns {
			fmt.Fprintf(stdout, "    %-40s %-8s %d bytes\n", c.Key, c.Kind, c.Bytes)
		}
	case "ls":
		st := openStore(*storePath)
		defer st.Close()
		meta, err := st.Metadata()
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(stdout, "%d profiles in %s\n\n", meta.NRows(), *storePath)
		fmt.Fprint(stdout, meta.Render(dataframe.RenderOptions{MaxRows: *maxRows, HideRepeated: true}))
	default:
		fatal(fmt.Errorf("unknown store action %q (want create, append, info, or ls)", action))
	}
}

// openStore opens a store, aborting the subcommand on failure.
func openStore(path string) *thicket.Store {
	st, err := thicket.OpenStore(path)
	if err != nil {
		fatal(err)
	}
	return st
}

// loadDirThicket composes a thicket from a profile directory, wrapping
// failures with the offending path.
func loadDirThicket(dir, indexBy string) *thicket.Thicket {
	profiles, err := thicket.LoadProfileDir(dir)
	if err != nil {
		fatal(err)
	}
	th, err := thicket.FromProfiles(profiles, thicket.Options{IndexBy: indexBy})
	if err != nil {
		fatal(fmt.Errorf("compose profiles from %s: %w", dir, err))
	}
	return th
}
