package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"irdb/internal/triple"
	"irdb/internal/workload"
)

func TestNearestRank(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		q    float64
		want float64
	}{{50, 5}, {51, 6}, {90, 9}, {99, 10}, {100, 10}, {1, 1}, {10, 1}, {11, 2}} {
		if got := nearestRank(sorted, tc.q); got != tc.want {
			t.Errorf("p%g of 1..10 = %g, want %g", tc.q, got, tc.want)
		}
	}
	if got := nearestRank(nil, 50); !math.IsNaN(got) {
		t.Errorf("p50 of nothing = %g, want NaN", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{1000, 99, true}, // rank 990: exactly ten beyond
		{999, 98, true},  // p99 would have nine beyond
		{2000, 99, true},
		{630, 98, true},
		{100, 90, true},
		{20, 50, true},
		{19, 0, false},
	} {
		q, ok := tailPercentile(tc.n)
		if q != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", tc.n, q, ok, tc.want, tc.ok)
		}
		if !ok {
			continue
		}
		if beyond := tc.n - int(math.Ceil(q/100*float64(tc.n))); beyond < minBeyond {
			t.Errorf("n=%d: p%g leaves %d samples beyond it", tc.n, q, beyond)
		}
	}
}

func TestSummarizeReportsTailWithItsPercentile(t *testing.T) {
	var s samples
	for i := 1; i <= 1000; i++ {
		s.add(time.Duration(i) * time.Millisecond)
	}
	got := summarize(s)
	if got.N != 1000 || got.P50 != 500 || got.TailQ != 99 || got.Tail != 990 || !got.TailOK {
		t.Errorf("summarize(1..1000 ms) = %+v", got)
	}
}

// fakeClock advances only when the code under test sleeps or sends.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time          { return c.now }
func (c *fakeClock) SleepUntil(t time.Time)  { c.now = t }
func (c *fakeClock) advance(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopChargesStallsFromDueTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	clk := &fakeClock{now: t0}
	const interval = 10 * time.Millisecond
	recs := runOpenLoop(schedule{start: t0, interval: interval}, t0.Add(100*time.Millisecond), clk, func(i int) error {
		if i == 2 {
			clk.advance(35 * time.Millisecond) // a stall
		} else {
			clk.advance(time.Millisecond)
		}
		return nil
	})
	if len(recs) != 10 {
		t.Fatalf("%d sends in 100ms at 10ms intervals, want 10", len(recs))
	}
	for i, r := range recs {
		if want := t0.Add(time.Duration(i) * interval); !r.Due.Equal(want) {
			t.Errorf("send %d due %v, want %v", i, r.Due.Sub(t0), want.Sub(t0))
		}
	}
	// Batch 2 is sent on time and takes 36ms to acknowledge in total.
	if got := recs[2].latency(); got != 35*time.Millisecond {
		t.Errorf("stalled send latency %v, want 35ms", got)
	}
	// Batch 3 was due at 30ms but could only go out at 55ms, when the
	// stall ended: it is charged the wait.
	if got := recs[3].lag(); got != 25*time.Millisecond {
		t.Errorf("send 3 lag %v, want 25ms", got)
	}
	if got := recs[3].latency(); got != 26*time.Millisecond {
		t.Errorf("send 3 latency %v, want 26ms (wait plus its own 1ms)", got)
	}
	// Batch 4 (due 40ms) goes out at 56ms; the loop catches up by batch 6.
	if got := recs[4].lag(); got != 16*time.Millisecond {
		t.Errorf("send 4 lag %v, want 16ms", got)
	}
	if got := recs[6].lag(); got != 0 {
		t.Errorf("send 6 lag %v, want 0 (caught up)", got)
	}
}

func TestDigestStability(t *testing.T) {
	a := []hit{{"lot000001", 0.75}, {"lot000002", 0.5}}
	if digest(a) != digest([]hit{{"lot000001", 0.75}, {"lot000002", 0.5}}) {
		t.Fatal("equal hit lists have different digests")
	}
	if digest(nil) != 0xcbf29ce484222325 {
		t.Errorf("digest of no hits = %x, want the FNV-1a offset basis", digest(nil))
	}
	for name, b := range map[string][]hit{
		"order":      {{"lot000002", 0.5}, {"lot000001", 0.75}},
		"id":         {{"lot000001", 0.75}, {"lot000003", 0.5}},
		"one ulp":    {{"lot000001", math.Nextafter(0.75, 1)}, {"lot000002", 0.5}},
		"truncated":  {{"lot000001", 0.75}},
		"id framing": {{"lot00000", 0.75}, {"1lot000002", 0.5}},
	} {
		if digest(a) == digest(b) {
			t.Errorf("%s change left the digest unchanged", name)
		}
	}
	book := newDigestBook()
	if !book.check("q", "client 0", digest(a)) || !book.check("q", "client 1", digest(a)) {
		t.Error("matching digests reported as a mismatch")
	}
	if book.check("q", "client 2", digest(a[:1])) || len(book.mismatches) != 1 {
		t.Errorf("mismatch not reported: %v", book.mismatches)
	}
}

func TestMatchIndexFloor(t *testing.T) {
	docs := docsMatchIndex([]workload.Doc{{ID: 1, Data: "alpha beta beta"}, {ID: 2, Data: "beta gamma"}, {ID: 3, Data: "delta"}})
	for _, tc := range []struct {
		q    string
		k    int
		want int
	}{{"beta", 10, 2}, {"beta delta", 10, 3}, {"beta delta", 2, 2}, {"Alpha", 10, 1}, {"omega", 10, 0}, {"beta beta", 10, 2}} {
		if got := docs.floor(tc.q, tc.k); got != tc.want {
			t.Errorf("docs floor(%q, %d) = %d, want %d", tc.q, tc.k, got, tc.want)
		}
	}
	str := func(s, p, o string) triple.Triple {
		return triple.Triple{Subject: s, Property: p, Obj: triple.String(o), P: 1}
	}
	lots := lotMatchIndex([]triple.Triple{
		str("auction1", "type", "auction"), str("auction1", "description", "red chair"),
		str("auction2", "type", "auction"), str("auction2", "description", "blue table"),
		str("lot1", "type", "lot"), str("lot1", "description", "oak"), str("lot1", "hasAuction", "auction1"),
		str("lot2", "type", "lot"), str("lot2", "description", "pine"), str("lot2", "hasAuction", "auction1"),
		str("lot3", "type", "lot"), str("lot3", "description", "red lamp"), str("lot3", "hasAuction", "auction2"),
		str("lot3", "title", "chair"),
	})
	// red reaches lot1 and lot2 through auction1 and lot3 by its own
	// description; titles are not indexed.
	for _, tc := range []struct {
		q    string
		want int
	}{{"red", 3}, {"chair", 2}, {"table", 1}, {"oak blue", 2}, {"lamp", 1}, {"auction", 0}} {
		if got := lots.floor(tc.q, 50); got != tc.want {
			t.Errorf("lots floor(%q) = %d, want %d", tc.q, got, tc.want)
		}
	}
}

// A program that returns too few hits fails the per-operation checks
// even when it returns them in order and the same on every client.
func TestChecksRejectTooFewHits(t *testing.T) {
	in := genHot(smokeHotConfig, 3)
	for _, kind := range []int{opDocs, opStrategy, opProduction} {
		q := in.probes[kind][0]
		if in.floors[kind][q] == 0 {
			t.Fatalf("%s probe %q has no generated match", opNames[kind], q)
		}
		if checkHits(in, kind, q, nil) == nil {
			t.Errorf("%s: an empty result passed", opNames[kind])
		}
		if f := in.floors[kind][q]; f > 1 && checkHits(in, kind, q, make([]hit, f-1)) == nil {
			t.Errorf("%s: %d hits passed a floor of %d", opNames[kind], f-1, f)
		}
	}
	if checkHits(in, opPrepared, in.probes[opPrepared][0], nil) == nil {
		t.Error("prepared: an empty result passed")
	}
	si, err := genIngest(smokeIngestConfig, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if q := si.probes[0]; si.floors[q] == 0 || checkSearch(si, q, nil) == nil {
		t.Errorf("serve-ingest probe %q: floor %d, empty result accepted", q, si.floors[q])
	}
}

func TestInterleaveKeepsShares(t *testing.T) {
	weights := []int{3, 3, 1, 3}
	seq := interleave(weights, 1000, rand.New(rand.NewSource(7)))
	var counts [4]int
	for _, k := range seq {
		counts[k]++
	}
	// 1000 operations are 100 blocks of 3+3+1+3.
	if counts != [4]int{300, 300, 100, 300} {
		t.Errorf("kind counts %v, want [300 300 100 300]", counts)
	}
	if again := interleave(weights, 1000, rand.New(rand.NewSource(7))); !slices.Equal(seq, again) {
		t.Error("same seed gave a different interleave")
	}
}

// want names the metrics a run must report: those of its result line,
// which are BENCHMARK.json's for the mode, and those it prints only.
type want struct{ result, printed []string }

// expected reads which metrics each workload must report in each mode:
// every workload's result line holds exactly the metrics BENCHMARK.json
// declares, and metrics.json assigns every metric, printed only or not,
// to the workloads that report it. It fails the test when the two files
// disagree.
func expected(t *testing.T) (endToEnd, perLayer map[string]want) {
	t.Helper()
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	var mapping struct {
		EndToEnd map[string]struct{ Workloads []string } `json:"end_to_end"`
		PerLayer map[string]struct{ Workloads []string } `json:"per_layer"`
	}
	for path, v := range map[string]any{"../BENCHMARK.json": &spec, "metrics.json": &mapping} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, v); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	byWorkload := func(names []struct{ Name string }, m map[string]struct{ Workloads []string }) map[string]want {
		inResult := map[string]bool{}
		out := map[string]want{}
		for _, n := range names {
			inResult[n.Name] = true
			if ws := m[n.Name].Workloads; !slices.Equal(ws, []string{"S", "I"}) {
				t.Errorf("metrics.json assigns %s to %v, want every workload [S I]", n.Name, ws)
			}
			for _, w := range []string{"S", "I"} {
				o := out[w]
				o.result = append(o.result, n.Name)
				out[w] = o
			}
		}
		for name, ws := range m {
			if inResult[name] {
				continue
			}
			if len(ws.Workloads) != 1 {
				t.Errorf("metrics.json assigns %s, which BENCHMARK.json does not declare, to %v: want one workload", name, ws.Workloads)
			}
			for _, w := range ws.Workloads {
				o := out[w]
				o.printed = append(o.printed, name)
				out[w] = o
			}
		}
		return out
	}
	return byWorkload(spec.EndToEnd, mapping.EndToEnd), byWorkload(spec.PerLayer, mapping.PerLayer)
}

// checkSmoke fails the test on any failed gate and unless the run
// reported exactly the metrics w names, each in its place.
func checkSmoke(t *testing.T, name string, rep *report, w want) {
	t.Helper()
	if !rep.correct() {
		t.Errorf("%s: %d of %d failed: %v", name, rep.failed, rep.attempted, rep.problems)
	}
	got := map[string]bool{} // name -> printed only
	for _, m := range rep.metrics {
		if _, ok := got[m.name]; ok {
			t.Errorf("%s reports %s twice", name, m.name)
		}
		got[m.name] = m.printed
		if math.IsNaN(m.metric.Value) || math.IsInf(m.metric.Value, 0) {
			t.Errorf("%s: %s = %g", name, m.name, m.metric.Value)
		}
	}
	for printed, names := range map[bool][]string{false: w.result, true: w.printed} {
		for _, m := range names {
			p, ok := got[m]
			switch {
			case !ok:
				t.Errorf("%s did not report %s", name, m)
			case p != printed:
				t.Errorf("%s: %s printed only %v, want %v", name, m, p, printed)
			}
			delete(got, m)
		}
	}
	for m := range got {
		t.Errorf("%s reports %s, which metrics.json does not assign to it", name, m)
	}
}

// The smoke configurations: each workload at a few hundred items.
var (
	smokeHotConfig    = hotConfig{Lots: 640, Docs: 400, DocLen: 30, DocVocab: 2000, Setups: 2, Probes: 3, Pool: 400}
	smokeIngestConfig = ingestConfig{Lots: 320, BatchRate: 20, PriceBatch: 20, LotBatch: 5, LotEvery: 5,
		Setups: 1, Restarts: 2, Probes: 3, Pool: 200, MemMB: 256}
)

func TestSmokeSearchHot(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workload for seconds")
	}
	e2e, layers := expected(t)
	cfg := smokeHotConfig
	// Long enough for twenty production samples, the fewest a tail needs.
	dur := 5 * time.Second
	if raceEnabled {
		dur *= 5
	}
	rep := &report{}
	if err := searchHot(cfg, 3, dur, rep); err != nil {
		t.Fatal(err)
	}
	checkSmoke(t, "search-hot", rep, e2e["S"])
	rep = &report{}
	if err := searchHotTraced(cfg, 3, dur, rep); err != nil {
		t.Fatal(err)
	}
	checkSmoke(t, "traced search-hot", rep, layers["S"])
}

func TestSmokeServeIngest(t *testing.T) {
	if testing.Short() {
		t.Skip("builds irdb-server and runs the workload for seconds")
	}
	e2e, layers := expected(t)
	dir := t.TempDir()
	bin := filepath.Join(dir, "irdb-server")
	if out, err := exec.Command("go", "build", "-o", bin, "irdb/cmd/irdb-server").CombinedOutput(); err != nil {
		t.Fatalf("build irdb-server: %v\n%s", err, out)
	}
	cfg := smokeIngestConfig
	cfg.ServerBin, cfg.WorkDir = bin, dir
	rep := &report{}
	if err := serveIngest(cfg, 4, 2*time.Second, false, rep); err != nil {
		t.Fatal(err)
	}
	checkSmoke(t, "serve-ingest", rep, e2e["I"])
	rep = &report{}
	if err := serveIngest(cfg, 4, 2*time.Second, true, rep); err != nil {
		t.Fatal(err)
	}
	checkSmoke(t, "traced serve-ingest", rep, layers["I"])
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Errorf("work dir holds %d entries after the runs, want only the server binary (err %v)", len(entries), err)
	}
}
