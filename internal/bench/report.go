package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"text/tabwriter"
)

// Value is one measured metric.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Row is one workload's result.
type Row struct {
	Workload string `json:"workload"`
	Why      string `json:"why"`
	Seed     int64  `json:"seed"`

	// Ops is the number of requests attempted in the measured phase
	// (searches plus ingest batches); len(RoundStats) is its size in
	// replays of the query set.
	Ops int `json:"ops"`
	// SearchSamples is the number of latency samples pooled over the rounds,
	// which search_p99_ms is read from; SupportedTail the highest percentile
	// with at least ten of them beyond it, BeyondP99 the count beyond the
	// p99 printed.
	SearchSamples int     `json:"search_samples"`
	SupportedTail float64 `json:"supported_tail"`
	BeyondP99     int     `json:"samples_beyond_p99"`
	// RequestStream fingerprints the bytes sent (StreamHash).
	RequestStream string `json:"request_stream_sha256"`

	// Attempted counts every request and oracle check of the run, Failed
	// the ones that were not a correct 200; FailedRatio is their quotient.
	Attempted   int      `json:"attempted"`
	Failed      int      `json:"failed"`
	FailedRatio float64  `json:"failed_ratio"`
	Failures    []string `json:"failures,omitempty"` // first few, for diagnosis

	// RoundStats are the measured phase's rounds, one by one; the search
	// metrics in EndToEnd, but for the pooled p99, are the medians of these
	// columns (roundColumns).
	RoundStats []RoundStat `json:"round_stats"`

	// EndToEnd holds EndToEndOf(Workload): measured in every mode.
	EndToEnd map[string]Value `json:"end_to_end"`
	// PerLayer is filled only when the traced pass ran.
	PerLayer map[string]Value `json:"per_layer,omitempty"`
}

// RoundStat is one replay of the query set inside the measured phase.
type RoundStat struct {
	Seconds float64 `json:"seconds"`
	P50Ms   float64 `json:"p50_ms"`
	P95Ms   float64 `json:"p95_ms"`
	QPS     float64 `json:"qps"`
	CPUMs   float64 `json:"cpu_ms_per_search"`
}

// roundColumns maps each end-to-end search metric to the per-round figure it
// is the median of.
var roundColumns = map[string]func(RoundStat) float64{
	"search_p50_ms":     func(rs RoundStat) float64 { return rs.P50Ms },
	"search_p95_ms":     func(rs RoundStat) float64 { return rs.P95Ms },
	"search_qps":        func(rs RoundStat) float64 { return rs.QPS },
	"cpu_ms_per_search": func(rs RoundStat) float64 { return rs.CPUMs },
}

// column extracts one figure from every round.
func (r *Row) column(f func(RoundStat) float64) []float64 {
	xs := make([]float64, len(r.RoundStats))
	for i, rs := range r.RoundStats {
		xs[i] = f(rs)
	}
	return xs
}

// Correct reports whether every request and check of the run passed.
func (r *Row) Correct() bool { return r.Failed == 0 && r.Attempted > 0 }

// Meta stamps what a report was measured on.
type Meta struct {
	Commit      string `json:"commit"`
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NProc       int    `json:"nproc"`
	Clients     int    `json:"clients"`
	Scale       Scale  `json:"scale"`
	Composition string `json:"composition"`
}

// Report is the file -out writes: one row per workload run.
type Report struct {
	Meta Meta  `json:"meta"`
	Rows []Row `json:"rows"`
}

// NewMeta describes the current process.
func NewMeta(sc Scale) Meta {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return Meta{
		Commit:      commit,
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NProc:       runtime.NumCPU(),
		Clients:     Clients,
		Scale:       sc,
		Composition: Composition,
	}
}

// WriteFile writes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadReport loads a file written by WriteFile.
func ReadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// driverLine is the result object the benchmark contract reads from the
// last line of standard output.
type driverLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// DriverLine renders the row's contract line: BENCHMARK.json's per_layer
// metrics when the traced pass ran, its end_to_end metrics otherwise.
func (r *Row) DriverLine() ([]byte, error) {
	metrics := r.PerLayer
	if metrics == nil {
		metrics = make(map[string]Value, len(EndToEnd))
		for _, m := range EndToEnd {
			metrics[m.Name] = r.EndToEnd[m.Name]
		}
	}
	return json.Marshal(driverLine{Correct: r.Correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: metrics})
}

// Print writes every metric of the row by name with its unit.
func (r *Row) Print(w io.Writer) {
	fmt.Fprintf(w, "workload %s seed %d: %d rounds, %d ops, %d search samples (tail supported to p%g, %d beyond p99), failed_ratio %g (%d/%d)\n",
		r.Workload, r.Seed, len(r.RoundStats), r.Ops, r.SearchSamples, r.SupportedTail*100, r.BeyondP99, r.FailedRatio, r.Failed, r.Attempted)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, m := range EndToEndOf(r.Workload) {
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", m.Name, r.EndToEnd[m.Name].Value, m.Unit)
	}
	if r.PerLayer != nil {
		for _, m := range layerMetrics {
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", m.Name, r.PerLayer[m.Name].Value, m.Unit)
		}
	}
	tw.Flush()
}

// Verdicts of Compare.
const (
	VerdictOK         = "ok"
	VerdictWorse      = "worse"
	VerdictUnresolved = "unresolved"
)

// Comparison is one workload × metric line of Compare.
type Comparison struct {
	Workload, Metric, Unit string
	Base, Other            float64
	// Ratio is Other ÷ Base.
	Ratio   float64
	Bound   float64
	Verdict string
}

// Compare holds report b against baseline a on failed_ratio and every
// end-to-end metric of every workload row they share: "worse" when b is worse
// than a by more than the metric's bound, "ok" when it is not, and
// "unresolved" when the pair cannot tell — a side has no value or failed its
// correctness gate, or either run's own rounds spread (interquartile ÷
// median) wider than the bound, so a difference of that size is within the
// run's noise. failed_ratio's bound is absolute: a b that fails its gate
// against an a that passed is worse.
func Compare(a, b *Report) []Comparison {
	rows := func(r *Report) map[string]*Row {
		m := make(map[string]*Row)
		for i := range r.Rows {
			m[r.Rows[i].Workload] = &r.Rows[i]
		}
		return m
	}
	ra, rb := rows(a), rows(b)
	names := make([]string, 0, len(ra))
	for name := range ra {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return workloadIndex(names[i]) < workloadIndex(names[j]) })
	var out []Comparison
	for _, name := range names {
		rowA, rowB := ra[name], rb[name]
		bothCorrect := rowB != nil && rowA.Correct() && rowB.Correct()

		failed := Comparison{Workload: name, Metric: FailedRatio.Name, Unit: FailedRatio.Unit, Base: rowA.FailedRatio, Verdict: VerdictUnresolved}
		if rowB != nil {
			failed.Other = rowB.FailedRatio
		}
		switch {
		case bothCorrect:
			failed.Verdict = VerdictOK
		case rowB != nil && rowA.Correct():
			failed.Verdict = VerdictWorse
		}
		out = append(out, failed)

		for _, m := range EndToEndOf(name) {
			c := Comparison{Workload: name, Metric: m.Name, Unit: m.Unit, Bound: m.Bound, Verdict: VerdictUnresolved}
			c.Base = rowA.EndToEnd[m.Name].Value
			if rowB != nil {
				c.Other = rowB.EndToEnd[m.Name].Value
			}
			c.Ratio = ratio(c.Other, c.Base)
			if bothCorrect && c.Ratio > 0 {
				worse := c.Ratio > 1+m.Bound
				if m.Better == "higher" {
					worse = c.Ratio < 1-m.Bound
				}
				switch {
				case max(roundSpread(rowA, m.Name), roundSpread(rowB, m.Name)) > m.Bound:
					// stays unresolved
				case worse:
					c.Verdict = VerdictWorse
				default:
					c.Verdict = VerdictOK
				}
			}
			out = append(out, c)
		}
	}
	return out
}

// roundSpread is the interquartile range ÷ median of the per-round column
// behind a search metric; 0 for metrics that are not medians over rounds
// and for runs too short to have quartiles.
func roundSpread(r *Row, metric string) float64 {
	column := roundColumns[metric]
	if column == nil || len(r.RoundStats) < 4 {
		return 0
	}
	return spreadOf(r.column(column))
}

func workloadIndex(name string) int {
	for i, w := range Workloads {
		if w.Name == name {
			return i
		}
	}
	return len(Workloads)
}

// PrintComparison writes Compare's lines and reports whether any is worse.
func PrintComparison(w io.Writer, cs []Comparison) (worse bool) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase\tother\tother/base\tbound\tverdict")
	for _, c := range cs {
		ratio := "-" // no base to take a ratio with
		if c.Ratio > 0 {
			ratio = fmt.Sprintf("%.4f", c.Ratio)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%s\t%.0f%%\t%s\n",
			c.Workload, c.Metric, c.Base, c.Unit, c.Other, c.Unit, ratio, c.Bound*100, c.Verdict)
		worse = worse || c.Verdict == VerdictWorse
	}
	tw.Flush()
	return worse
}
