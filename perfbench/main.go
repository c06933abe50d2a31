// Command perfbench is irdb's benchmark: one command, a seed, two
// workloads, end-to-end metrics with tracing off and a per-layer split
// with tracing on. See README.md for the workloads and metrics, and
// run.sh for how it is built and invoked.
//
//	perfbench --workload search-hot|serve-ingest --seed N --seconds S --trace 0|1 \
//	    --server-bin PATH --work-dir DIR
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit status is 1 when a
// correctness gate failed and 2 when the benchmark could not run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

func main() {
	var (
		wl        = flag.String("workload", "", "workload: search-hot or serve-ingest")
		seed      = flag.Int64("seed", 1, "seed every generated input derives from")
		secs      = flag.Int("seconds", 10, "measured seconds per run")
		trace     = flag.Int("trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
		serverBin = flag.String("server-bin", "", "irdb-server binary (serve-ingest)")
		workDir   = flag.String("work-dir", "", "directory for the run's files (serve-ingest)")
	)
	flag.Parse()
	dur := time.Duration(*secs) * time.Second
	rep := &report{}
	var err error
	switch {
	case *secs < 1 || (*trace != 0 && *trace != 1):
		err = fmt.Errorf("want --seconds >= 1 and --trace 0 or 1, got %d and %d", *secs, *trace)
	case *wl == "search-hot" && *trace == 0:
		err = searchHot(defaultHotConfig(), *seed, dur, rep)
	case *wl == "search-hot":
		err = searchHotTraced(defaultHotConfig(), *seed, dur, rep)
	case *wl == "serve-ingest":
		cfg := defaultIngestConfig()
		cfg.ServerBin, cfg.WorkDir = *serverBin, *workDir
		err = serveIngest(cfg, *seed, dur, *trace != 0, rep)
	default:
		err = fmt.Errorf("unknown workload %q (want search-hot or serve-ingest)", *wl)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	rep.print(os.Stdout)
	if !rep.correct() {
		os.Exit(1)
	}
}

// metric is one reported value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type namedMetric struct {
	name   string
	metric metric
	detail string
	// printed marks a metric only one workload measures: a line of the
	// table, left out of the result line, which holds the metrics of
	// BENCHMARK.json that every workload reports.
	printed bool
}

// report collects a run's metrics, correctness gates and notes, and
// prints them: a human-readable table, then the result line.
type report struct {
	attempted, failed int64
	problems          []string
	metrics           []namedMetric
	notes             []string
}

// count adds operations attempted and failed; their failures are
// described through problem.
func (r *report) count(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

// problem records failure descriptions already counted by count.
func (r *report) problem(msgs ...string) { r.problems = append(r.problems, msgs...) }

// gate checks one run-level condition; a failed gate counts as a failed
// operation.
func (r *report) gate(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

func (r *report) errorRate() float64 { return ratio(float64(r.failed), float64(r.attempted)) }

// metric reports a metric of BENCHMARK.json, in the table and the result
// line.
func (r *report) metric(name string, v float64, unit, detail string) {
	r.metrics = append(r.metrics, namedMetric{name: name, metric: metric{Value: v, Unit: unit}, detail: detail})
}

// extra reports a metric of this workload alone, in the table only.
func (r *report) extra(name string, v float64, unit, detail string) {
	r.metrics = append(r.metrics, namedMetric{name: name, metric: metric{Value: v, Unit: unit}, detail: detail, printed: true})
}

// layer reports a per-layer metric of BENCHMARK.json.
func (r *report) layer(name string, v float64, unit string) { r.metric(name, v, unit, "") }

// latency reports an operation's median and tail latency with their
// sample count, as metrics of BENCHMARK.json when inResult and as table
// lines otherwise. The tail is p99 when at least ten samples lie beyond
// it, otherwise the highest percentile that has them, and says which.
func (r *report) latency(op string, s latencySummary, inResult bool) {
	add := r.extra
	if inResult {
		add = r.metric
	}
	add(op+"_p50_ms", s.P50, "ms", fmt.Sprintf("n=%d", s.N))
	if !s.TailOK {
		r.problems = append(r.problems, fmt.Sprintf("%s: %d samples cannot support a tail percentile", op, s.N))
		return
	}
	add(op+"_p99_ms", s.Tail, "ms", fmt.Sprintf("p%g, n=%d", s.TailQ, s.N))
}

func (r *report) note(s string) { r.notes = append(r.notes, s) }

func (r *report) print(f *os.File) {
	for i, m := range r.metrics {
		if math.IsNaN(m.metric.Value) || math.IsInf(m.metric.Value, 0) {
			r.problems = append(r.problems, m.name+" is not a number")
			r.metrics[i].metric.Value = 0
		}
	}
	for _, m := range r.metrics {
		mark := ""
		if m.printed {
			mark = "(printed only) "
		}
		fmt.Fprintf(f, "%-36s %14.6g %-6s %s%s\n", m.name, m.metric.Value, m.metric.Unit, mark, m.detail)
	}
	for _, n := range r.notes {
		fmt.Fprintf(f, "# %s\n", n)
	}
	fmt.Fprintf(f, "# error_rate %.6g (%d failed of %d attempted)\n", r.errorRate(), r.failed, r.attempted)
	problems := append([]string(nil), r.problems...)
	sort.Strings(problems)
	for _, p := range problems {
		fmt.Fprintf(f, "# FAILED: %s\n", p)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, m := range r.metrics {
		if !m.printed {
			out.Metrics[m.name] = m.metric
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	fmt.Fprintln(f, strings.TrimSpace(string(line)))
}
