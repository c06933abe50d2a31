// Package bench provides the measurement harness used by the experiment
// driver (cmd/benchrun) to regenerate the paper's reported numbers:
// latency distributions, throughput, and aligned report tables recording
// paper-reported versus measured values.
package bench

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"irdb/internal/fault"
)

// Latencies is a set of duration samples.
type Latencies struct {
	samples []time.Duration
}

// Measure runs f n times, timing each run. It stops at the first error.
func Measure(n int, f func() error) (*Latencies, error) {
	l := &Latencies{samples: make([]time.Duration, 0, n)}
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return nil, fmt.Errorf("bench: run %d: %w", i, err)
		}
		l.samples = append(l.samples, time.Since(start))
	}
	return l, nil
}

// MeasureConcurrent runs f from clients goroutines, perClient calls each,
// timing every call. It returns the merged per-call latencies plus the
// wall-clock time of the whole stampede — the number throughput claims
// should be computed from, since per-call latencies overlap. f receives
// the client index and the call index and must be safe for concurrent
// use. The first error stops that client and is returned.
func MeasureConcurrent(clients, perClient int, f func(client, call int) error) (*Latencies, time.Duration, error) {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	merged := &Latencies{samples: make([]time.Duration, 0, clients*perClient)}
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Contain panics at the goroutine boundary: a panicking
			// workload function becomes the stampede's first error
			// instead of killing the benchmark process.
			defer func() {
				if r := recover(); r != nil {
					pe := fault.Capture(fmt.Sprintf("bench client %d", c), r)
					mu.Lock()
					if first == nil {
						first = pe
					}
					mu.Unlock()
				}
			}()
			local := make([]time.Duration, 0, perClient)
			for i := 0; i < perClient; i++ {
				t0 := time.Now()
				if err := f(c, i); err != nil {
					mu.Lock()
					if first == nil {
						first = fmt.Errorf("bench: client %d call %d: %w", c, i, err)
					}
					mu.Unlock()
					return
				}
				local = append(local, time.Since(t0))
			}
			mu.Lock()
			merged.samples = append(merged.samples, local...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	if first != nil {
		return nil, wall, first
	}
	return merged, wall, nil
}

// Add appends a sample.
func (l *Latencies) Add(d time.Duration) { l.samples = append(l.samples, d) }

// N reports the sample count.
func (l *Latencies) N() int { return len(l.samples) }

// P returns the q-quantile (0 <= q <= 1) by nearest-rank.
func (l *Latencies) P(q float64) time.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(l.samples))
	copy(sorted, l.samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Mean returns the arithmetic mean.
func (l *Latencies) Mean() time.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	var total time.Duration
	for _, s := range l.samples {
		total += s
	}
	return total / time.Duration(len(l.samples))
}

// Min returns the fastest sample.
func (l *Latencies) Min() time.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	min := l.samples[0]
	for _, s := range l.samples[1:] {
		if s < min {
			min = s
		}
	}
	return min
}

// Max returns the slowest sample.
func (l *Latencies) Max() time.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	max := l.samples[0]
	for _, s := range l.samples[1:] {
		if s > max {
			max = s
		}
	}
	return max
}

// Throughput returns operations per second over the summed sample time.
func (l *Latencies) Throughput() float64 {
	var total time.Duration
	for _, s := range l.samples {
		total += s
	}
	if total == 0 {
		return 0
	}
	return float64(len(l.samples)) / total.Seconds()
}

// Ms renders a duration in milliseconds with two decimals, the unit the
// paper reports ("20ms", "150ms").
func Ms(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000.0)
}

// ---------------------------------------------------------------------------
// Tables

// Table is an aligned text table for experiment reports.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row, stringifying each cell.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case time.Duration:
			row[i] = Ms(v)
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddNote appends a free-text note printed under the table.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	all := append([][]string{t.Header}, t.Rows...)
	widths := make([]int, 0)
	for _, row := range all {
		for i, cell := range row {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(row []string) {
		for i, cell := range row {
			fmt.Fprintf(&b, "%-*s", widths[i]+2, cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, w := range widths {
		b.WriteString(strings.Repeat("-", w) + "  ")
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the table as GitHub-flavoured markdown (benchrun -md).
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "### %s\n\n", t.Title)
	}
	b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	seps := make([]string, len(t.Header))
	for i := range seps {
		seps[i] = "---"
	}
	b.WriteString("| " + strings.Join(seps, " | ") + " |\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", n)
	}
	return b.String()
}
