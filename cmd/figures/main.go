// Command figures regenerates every table and figure from the paper's
// evaluation section and writes them to stdout and (optionally) a results
// directory.
//
// Every requested figure's configurations go into one bounded worker pool
// (-jobs N, default = all CPUs), and a configuration two figures share is
// simulated once, also under -csv; rendered output is byte-identical for
// any -jobs value. Every -only name is checked before anything runs.
//
// Usage:
//
//	figures [-only fig16,fig18] [-threads 64] [-scale 2] [-quick] [-jobs 8] [-out results/ [-csv]]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"minnow"
)

func main() {
	var (
		only    = flag.String("only", "", "comma-separated subset (e.g. fig16,table1); empty = all")
		threads = flag.Int("threads", 64, "simulated core count")
		scale   = flag.Int("scale", 0, "input scale multiplier (0 = the suite default of 2)")
		seed    = flag.Uint64("seed", 42, "graph generator seed")
		quick   = flag.Bool("quick", false, "trimmed sweeps (fast)")
		out     = flag.String("out", "", "directory to also write per-figure .txt files")
		csv     = flag.Bool("csv", false, "also write .csv files (requires -out)")
		jobs    = flag.Int("jobs", 0, "max concurrent simulations (0 = all CPUs, 1 = serial)")
	)
	flag.Parse()

	opts := minnow.FigureOptions{Threads: *threads, Scale: *scale, Seed: *seed, Quick: *quick, Jobs: *jobs}
	if err := opts.Validate(); err != nil {
		fail(err)
	}
	if *csv && *out == "" {
		fail(fmt.Errorf("-csv requires -out"))
	}
	names := minnow.Figures()
	if *only != "" {
		names = strings.Split(*only, ",")
		for i := range names {
			names[i] = strings.TrimSpace(names[i])
		}
	}

	start := time.Now()
	texts, csvs, err := minnow.RenderFigures(names, opts)
	if err != nil {
		fail(err)
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fail(err)
		}
	}
	for i, name := range names {
		fmt.Printf("=== %s ===\n%s\n", name, texts[i])
		if *out == "" {
			continue
		}
		if err := os.WriteFile(filepath.Join(*out, name+".txt"), []byte(texts[i]), 0o644); err != nil {
			fail(err)
		}
		if *csv {
			if err := os.WriteFile(filepath.Join(*out, name+".csv"), []byte(csvs[i]), 0o644); err != nil {
				fail(err)
			}
		}
	}
	fmt.Printf("=== %d figures in %.1fs ===\n", len(names), time.Since(start).Seconds())
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(1)
}
