// Command tklus-bench regenerates the paper's evaluation: every figure of
// Section VI plus Table IV and the design-choice ablations, printed as
// aligned tables whose rows mirror the paper's plotted series. Absolute
// times differ from the paper's Hadoop cluster, the shapes are what count
// (see EXPERIMENTS.md).
//
// Usage:
//
//	tklus-bench                 # run everything at the default scale
//	tklus-bench -fig 8          # a single figure
//	tklus-bench -posts 10000 -queries 10   # smaller, faster run
//
// The serving-path benchmark (HTTP in, JSON out, per-layer breakdown) is
// internal/bench; this command only reproduces the paper.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tklus-bench: ")

	var (
		fig     = flag.String("fig", "all", "experiment id (5..13, table4, ablation-*, all)")
		posts   = flag.Int("posts", 40000, "corpus size")
		users   = flag.Int("users", 3000, "user count")
		queries = flag.Int("queries", 30, "queries per keyword-count class")
		seed    = flag.Int64("seed", 42, "random seed")
		k       = flag.Int("k", 10, "result size k")
		iolat   = flag.Duration("iolat", 2*time.Microsecond,
			"simulated latency per metadata page read (paper regime: disk-based, caches off)")
		list = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()

	if *list {
		for _, r := range experiments.Runners() {
			fmt.Printf("  %-18s %s\n", r.ID, r.Name)
		}
		return
	}

	cfg := experiments.Config{
		Seed: *seed, NumUsers: *users, NumPosts: *posts,
		QueryPerClass: *queries, K: *k, IOLatency: *iolat,
	}
	fmt.Fprintf(os.Stderr, "generating corpus (%d posts, %d users, seed %d)...\n",
		cfg.NumPosts, cfg.NumUsers, cfg.Seed)
	start := time.Now()
	setup, err := experiments.NewSetup(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "corpus ready in %v\n\n", time.Since(start).Round(time.Millisecond))

	ran := 0
	for _, r := range experiments.Runners() {
		if *fig != "all" && *fig != r.ID {
			continue
		}
		t0 := time.Now()
		table, err := r.Run(setup)
		if err != nil {
			log.Fatalf("%s: %v", r.ID, err)
		}
		table.Fprint(os.Stdout)
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n\n", r.ID, time.Since(t0).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		log.Fatalf("unknown experiment %q (use -list)", *fig)
	}
}
