// Command tklus-e2ebench runs the repository's end-to-end benchmark (see
// internal/bench/README.md): one workload per invocation, or -workload all
// to run the four in sequence, each in a fresh child process. The last line
// of standard output is the benchmark contract's result object.
//
//	tklus-e2ebench -workload city-sum -seed 1 -out city-sum.json
//	tklus-e2ebench -workload all -seed 1 -out all.json
//	tklus-e2ebench -compare base.json other.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"

	"repro/internal/bench"
)

// options are the command's flags.
type options struct {
	workload, scale string
	seed            int64
	seconds         float64
	trace           int
	out, traceOut   string
	compare         bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "city-sum | wide-max | sharded-city | ingest-mix | all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the corpus, the query set and every round's order")
	flag.Float64Var(&o.seconds, "seconds", 0, "measure whole rounds until this many seconds have passed (0 = fixed op count)")
	flag.StringVar(&o.scale, "scale", "bench", "corpus tier: smoke (5k posts) | bench (250k) | full (1M)")
	flag.IntVar(&o.trace, "trace", 1, "1 = run the traced pass and end with the per-layer metrics, 0 = end with the end-to-end metrics")
	flag.StringVar(&o.out, "out", "", "write the full report (JSON) here")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the traced pass's spans (JSON) here")
	flag.BoolVar(&o.compare, "compare", false, "compare two report files: -compare base.json other.json")
	flag.Parse()
	// The harness and the server share the process and the sandbox's two
	// cores; pinning keeps a larger host from changing what is measured.
	runtime.GOMAXPROCS(bench.MaxProcs)

	code, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tklus-e2ebench:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run(o options) (int, error) {
	if o.compare {
		if flag.NArg() != 2 {
			return 0, fmt.Errorf("-compare needs two report files")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	sc, ok := bench.Scales[o.scale]
	if !ok {
		return 0, fmt.Errorf("unknown scale %q", o.scale)
	}
	report := &bench.Report{Meta: bench.NewMeta(sc)}
	if o.workload == "all" {
		if err := runAll(report); err != nil {
			return 0, err
		}
	} else {
		w, err := bench.WorkloadByName(o.workload)
		if err != nil {
			return 0, err
		}
		row, spans, err := bench.Run(bench.Config{
			Workload: w, Scale: sc, Seed: o.seed, Seconds: o.seconds,
			Trace: o.trace != 0, Log: os.Stderr,
		})
		if err != nil {
			return 0, err
		}
		report.Rows = append(report.Rows, *row)
		if o.traceOut != "" {
			data, err := json.Marshal(spans)
			if err != nil {
				return 0, err
			}
			if err := os.WriteFile(o.traceOut, data, 0o644); err != nil {
				return 0, err
			}
		}
	}
	if o.out != "" {
		if err := report.WriteFile(o.out); err != nil {
			return 0, err
		}
	}
	code := 0
	for i := range report.Rows {
		row := &report.Rows[i]
		row.Print(os.Stdout)
		if !row.Correct() {
			code = 1
		}
	}
	// The contract's result object describes one workload's run.
	if len(report.Rows) == 1 {
		line, err := report.Rows[0].DriverLine()
		if err != nil {
			return 0, err
		}
		fmt.Printf("%s\n", line)
	}
	return code, nil
}

// runAll runs every workload in a fresh child process, so peak RSS and GC
// state do not leak from one row into the next, and gathers their rows.
func runAll(report *bench.Report) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "tklus-e2ebench-rows-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for _, w := range bench.Workloads {
		rowFile := filepath.Join(dir, w.Name+".json")
		args := []string{"-workload", w.Name, "-out", rowFile}
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "workload" && f.Name != "out" && f.Name != "trace-out" {
				args = append(args, "-"+f.Name+"="+f.Value.String())
			}
		})
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr // the child's table is reprinted from its row
		if err := cmd.Run(); err != nil {
			if _, failedGate := err.(*exec.ExitError); !failedGate {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
		}
		child, err := bench.ReadReport(rowFile)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		report.Rows = append(report.Rows, child.Rows...)
	}
	return nil
}

func compareFiles(basePath, otherPath string) (int, error) {
	base, err := bench.ReadReport(basePath)
	if err != nil {
		return 0, err
	}
	other, err := bench.ReadReport(otherPath)
	if err != nil {
		return 0, err
	}
	fmt.Printf("base  %s: commit %s, %s, GOMAXPROCS %d, %d posts\nother %s: commit %s, %s, GOMAXPROCS %d, %d posts\n",
		basePath, base.Meta.Commit, base.Meta.GoVersion, base.Meta.GOMAXPROCS, base.Meta.Scale.Posts,
		otherPath, other.Meta.Commit, other.Meta.GoVersion, other.Meta.GOMAXPROCS, other.Meta.Scale.Posts)
	if bench.PrintComparison(os.Stdout, bench.Compare(base, other)) {
		return 1, nil
	}
	return 0, nil
}
