package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// summarizeTraces reads trace JSON saved from /debug/traces/{id} — one
// telemetry.Trace object or an array of them — and prints, per trace,
// the span tree and the per-shard critical path, then the per-stage
// exclusive-time totals across every trace in the file.
func summarizeTraces(path string, w io.Writer) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	traces, err := decodeTraces(raw)
	if err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(traces) == 0 {
		return fmt.Errorf("%s holds no traces", path)
	}

	excl := map[string]*stageAgg{}
	var rootTotal int64
	for i, t := range traces {
		if i > 0 {
			fmt.Fprintln(w)
		}
		printTrace(w, t)
		rootTotal += t.DurationUs
		accumulateExclusive(t, excl)
	}

	fmt.Fprintln(w)
	printStageTotals(w, excl, rootTotal)
	return nil
}

// decodeTraces accepts a single Trace object or a JSON array of them.
func decodeTraces(raw []byte) ([]*telemetry.Trace, error) {
	trimmed := bytes.TrimSpace(raw)
	if len(trimmed) > 0 && trimmed[0] == '[' {
		var ts []*telemetry.Trace
		if err := json.Unmarshal(trimmed, &ts); err != nil {
			return nil, err
		}
		return ts, nil
	}
	var t telemetry.Trace
	if err := json.Unmarshal(trimmed, &t); err != nil {
		return nil, err
	}
	return []*telemetry.Trace{&t}, nil
}

// printTrace renders one trace: header, indented span tree, and the
// per-shard critical-path table.
func printTrace(w io.Writer, t *telemetry.Trace) {
	flags := make([]string, 0, 3)
	if t.Hedged {
		flags = append(flags, "hedged")
	}
	if t.Degraded {
		flags = append(flags, "degraded")
	}
	if t.Errored {
		flags = append(flags, "errored")
	}
	suffix := ""
	if len(flags) > 0 {
		suffix = " [" + strings.Join(flags, ",") + "]"
	}
	fmt.Fprintf(w, "trace %s  %s  %s  %s%s\n",
		t.TraceID, t.Root, usDur(t.DurationUs), t.Outcome, suffix)

	children := map[string][]int{}
	var roots []int
	for i, sp := range t.Spans {
		if sp.ParentID == "" {
			roots = append(roots, i)
		} else {
			children[sp.ParentID] = append(children[sp.ParentID], i)
		}
	}
	var walk func(i, depth int)
	walk = func(i, depth int) {
		sp := t.Spans[i]
		label := sp.Name
		if sp.Shard != "" {
			label += " (" + sp.Shard + ")"
		}
		if sp.Attrs["hedge"] == "backup" {
			label += " [hedge]"
		}
		note := ""
		if sp.Unfinished {
			note = "  UNFINISHED"
		} else if sp.Error != "" {
			note = "  ERROR: " + sp.Error
		}
		fmt.Fprintf(w, "  %s%-*s +%s %s%s\n",
			strings.Repeat("  ", depth), 40-2*depth, label,
			usDur(sp.StartUs), usDur(sp.DurationUs), note)
		for _, e := range sp.Events {
			msg := e.Name
			if e.Msg != "" {
				msg += ": " + e.Msg
			}
			fmt.Fprintf(w, "  %s! %s (+%s)\n",
				strings.Repeat("  ", depth+1), msg, usDur(e.OffsetUs))
		}
		for _, c := range children[sp.SpanID] {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}

	printShardCriticalPath(w, t)
}

// shardAgg accumulates the attempt spans of one shard within a trace.
type shardAgg struct {
	name     string
	attempts int
	errors   int
	hedges   int
	winUs    int64 // fastest successful attempt; -1 when none succeeded
}

// printShardCriticalPath summarizes the scatter-gather barrier: per
// shard, how many attempts ran, how many failed or were hedge backups,
// and the winning attempt's latency. The slowest winning shard is the
// gather critical path — the shard that set the query's floor.
func printShardCriticalPath(w io.Writer, t *telemetry.Trace) {
	byShard := map[string]*shardAgg{}
	for _, sp := range t.Spans {
		if sp.Name != "shard.attempt" || sp.Shard == "" {
			continue
		}
		a := byShard[sp.Shard]
		if a == nil {
			a = &shardAgg{name: sp.Shard, winUs: -1}
			byShard[sp.Shard] = a
		}
		a.attempts++
		if sp.Attrs["hedge"] == "backup" {
			a.hedges++
		}
		switch {
		case sp.Error != "" || sp.Unfinished:
			a.errors++
		case a.winUs < 0 || sp.DurationUs < a.winUs:
			a.winUs = sp.DurationUs
		}
	}
	if len(byShard) == 0 {
		return
	}
	shards := make([]*shardAgg, 0, len(byShard))
	critical := ""
	var worst int64 = -1
	for _, a := range byShard {
		shards = append(shards, a)
		if a.winUs > worst {
			worst, critical = a.winUs, a.name
		}
	}
	sort.Slice(shards, func(i, j int) bool { return shards[i].name < shards[j].name })

	fmt.Fprintf(w, "  shard critical path:\n")
	for _, a := range shards {
		win := "lost"
		if a.winUs >= 0 {
			win = usDur(a.winUs)
		}
		mark := ""
		if a.name == critical && a.winUs >= 0 {
			mark = "  <- critical"
		}
		fmt.Fprintf(w, "    %-12s %d attempt(s), %d failed, %d hedged, win %s%s\n",
			a.name, a.attempts, a.errors, a.hedges, win, mark)
	}
}

// stageAgg accumulates exclusive time for one span name across traces.
type stageAgg struct {
	name  string
	count int
	usSum int64
}

// accumulateExclusive charges each span its exclusive time — duration
// minus the time covered by its children — so a stage's row reflects the
// work done in that stage itself, not everything beneath it.
func accumulateExclusive(t *telemetry.Trace, agg map[string]*stageAgg) {
	childUs := map[string]int64{}
	for _, sp := range t.Spans {
		if sp.ParentID != "" {
			childUs[sp.ParentID] += sp.DurationUs
		}
	}
	for _, sp := range t.Spans {
		excl := sp.DurationUs - childUs[sp.SpanID]
		if excl < 0 {
			excl = 0 // concurrent children (hedges) can exceed the parent
		}
		a := agg[sp.Name]
		if a == nil {
			a = &stageAgg{name: sp.Name}
			agg[sp.Name] = a
		}
		a.count++
		a.usSum += excl
	}
}

// printStageTotals renders the cross-trace per-stage table, largest
// exclusive total first, as a share of summed root durations.
func printStageTotals(w io.Writer, agg map[string]*stageAgg, rootTotalUs int64) {
	stages := make([]*stageAgg, 0, len(agg))
	for _, a := range agg {
		stages = append(stages, a)
	}
	sort.Slice(stages, func(i, j int) bool {
		if stages[i].usSum != stages[j].usSum {
			return stages[i].usSum > stages[j].usSum
		}
		return stages[i].name < stages[j].name
	})

	fmt.Fprintf(w, "per-stage exclusive time (all traces):\n")
	for _, a := range stages {
		pct := 0.0
		if rootTotalUs > 0 {
			pct = 100 * float64(a.usSum) / float64(rootTotalUs)
		}
		fmt.Fprintf(w, "  %-28s %4dx  %10s  %5.1f%%\n",
			a.name, a.count, usDur(a.usSum), pct)
	}
}

// usDur renders a microsecond count as a rounded duration.
func usDur(us int64) string {
	d := time.Duration(us) * time.Microsecond
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	}
	return d.String()
}
