package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"time"
)

// samples collects one operation type's latencies in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d)/float64(time.Millisecond)) }

func (s samples) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// nearestRank returns the q-th percentile (0 < q <= 100) of sorted by the
// nearest-rank method: the smallest sample with at least q% of the samples
// at or below it. No interpolation, so every reported value is a measured
// one.
func nearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// minBeyond is how many samples must lie above a reported tail
// percentile: a percentile with fewer samples beyond it is one or two
// outliers, not a tail.
const minBeyond = 10

// tailPercentile returns the highest whole percentile from 99 down to 50
// that has at least minBeyond samples beyond its nearest rank among n
// samples; ok is false when even the median lacks them (n < 20).
func tailPercentile(n int) (q float64, ok bool) {
	for q := 99; q >= 50; q-- {
		rank := int(math.Ceil(float64(q) / 100 * float64(n)))
		if n-rank >= minBeyond {
			return float64(q), true
		}
	}
	return 0, false
}

// latencySummary is the reported form of one operation type's latencies.
type latencySummary struct {
	N      int
	P50    float64
	Tail   float64 // value at TailQ
	TailQ  float64 // the percentile Tail reports (99 when the sample allows)
	TailOK bool
	Mean   float64
}

func summarize(s samples) latencySummary {
	sorted := s.sorted()
	out := latencySummary{N: len(sorted), Mean: s.mean()}
	if len(sorted) == 0 {
		return out
	}
	out.P50 = nearestRank(sorted, 50)
	if q, ok := tailPercentile(len(sorted)); ok {
		out.TailQ, out.Tail, out.TailOK = q, nearestRank(sorted, q), true
	}
	return out
}

// hit is one ranked result as the benchmark compares it: an identifier and
// the exact score bits.
type hit struct {
	ID    string
	Score float64
}

// digest fingerprints a ranked result list: identifiers, order and exact
// score bits. Two runs of the same query must produce equal digests — the
// engine's results are bit-identical across clients, parallelism and
// execution paths.
func digest(hits []hit) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range hits {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(x.ID)))
		h.Write(buf[:])
		h.Write([]byte(x.ID))
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x.Score))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// digestBook records the digest each probe query produced and reports
// every disagreement.
type digestBook struct {
	want       map[string]uint64
	mismatches []string
}

func newDigestBook() *digestBook { return &digestBook{want: map[string]uint64{}} }

// check records key's digest the first time and compares later ones,
// returning false on a mismatch.
func (b *digestBook) check(key, who string, d uint64) bool {
	if w, ok := b.want[key]; ok {
		if w != d {
			b.mismatches = append(b.mismatches, fmt.Sprintf("%s: %s returned digest %016x, want %016x", key, who, d, w))
			return false
		}
		return true
	}
	b.want[key] = d
	return true
}
