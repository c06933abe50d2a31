package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
)

// vmHWM returns the peak resident set size, in MiB, of the process with
// the given status file ("/proc/self/status" or "/proc/<pid>/status").
func vmHWM(statusPath string) (float64, error) {
	f, err := os.Open(statusPath)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM in %s: %w", statusPath, err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in %s", statusPath)
}

// resetHWM lowers this process's peak-RSS mark to its current RSS, so the
// peak reported later covers serving, not the transient copies of
// generated inputs that loading needed.
func resetHWM() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// cpuSeconds is the user plus system CPU time this process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// gcSample is a reading of the Go runtime's GC cost counters.
type gcSample struct {
	gcCPU, totalCPU float64
	pauses          *metrics.Float64Histogram
}

var gcMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
}

func readGC() gcSample {
	ms := make([]metrics.Sample, len(gcMetricNames))
	for i, n := range gcMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	var s gcSample
	if ms[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = ms[0].Value.Float64()
	}
	if ms[1].Value.Kind() == metrics.KindFloat64 {
		s.totalCPU = ms[1].Value.Float64()
	}
	if ms[2].Value.Kind() == metrics.KindFloat64Histogram {
		s.pauses = ms[2].Value.Float64Histogram()
	}
	return s
}

// gcCost returns the share of CPU time spent in GC between two readings,
// and the 99th percentile stop-the-world GC pause in milliseconds (the
// upper edge of the histogram bucket holding it; 0 when nothing paused).
func gcCost(before, after gcSample) (cpuFraction, pauseP99ms float64) {
	if d := after.totalCPU - before.totalCPU; d > 0 {
		cpuFraction = (after.gcCPU - before.gcCPU) / d
	}
	if before.pauses == nil || after.pauses == nil {
		return cpuFraction, 0
	}
	counts := make([]uint64, len(after.pauses.Counts))
	var total uint64
	for i := range counts {
		counts[i] = after.pauses.Counts[i] - before.pauses.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return cpuFraction, 0
	}
	need := uint64(math.Ceil(0.99 * float64(total)))
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= need {
			upper := after.pauses.Buckets[i+1]
			if math.IsInf(upper, 1) {
				upper = after.pauses.Buckets[i]
			}
			return cpuFraction, upper * 1e3
		}
	}
	return cpuFraction, 0
}
