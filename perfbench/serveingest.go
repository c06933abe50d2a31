package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"irdb/client"
	"irdb/internal/catalog"
	"irdb/internal/engine"
	"irdb/internal/ingest"
	"irdb/internal/strategy"
	"irdb/internal/text"
	"irdb/internal/triple"
	"irdb/internal/vector"
	"irdb/internal/wal"
	"irdb/internal/workload"
)

// ingestConfig sizes serve-ingest.
type ingestConfig struct {
	Lots       int
	BatchRate  float64 // writer batches per second
	PriceBatch int     // lots re-priced per price batch
	LotBatch   int     // new lots per new-lot batch
	LotEvery   int     // one new-lot batch in every LotEvery batches
	Setups     int
	Restarts   int
	Probes     int
	Pool       int
	MemMB      int
	ServerBin  string
	WorkDir    string
}

// defaultIngestConfig writes 8 batches/s, one in ten of them new lots:
// 32 view rebuilds in a 40 s window, 1.6–2% of the 1,600–2,000
// searches, so the search p99 falls in the middle of the rebuilds rather
// than at their edge, at the cost of 640 new lots (16% of the graph) per
// window. The sweep behind these numbers is in README.md.
func defaultIngestConfig() ingestConfig {
	return ingestConfig{Lots: 4000, BatchRate: 8, PriceBatch: 100, LotBatch: 20, LotEvery: 10,
		Setups: 5, Restarts: 7, Probes: 8, Pool: 20000, MemMB: 2048}
}

// fsyncPolicy is the server's WAL policy (its default): every
// acknowledged append survives a crash.
const fsyncPolicy = "always"

// searchStrategy has no expansion block, so irdb-server's built-in
// synonym dictionary, drawn over another vocabulary than the generated
// graph's, plays no part in its results.
const searchStrategy = "auction-lots"

// searchK is the number of hits every search asks for.
const searchK = 50

// wireTriple is POST /append's form of a triple or delete key.
type wireTriple struct {
	Subject  string `json:"subject"`
	Property string `json:"property"`
	Object   any    `json:"object"`
}

// batch is one writer request.
type batch struct {
	lots      bool // a new-lot batch; otherwise a price update
	appends   []triple.Triple
	deletes   []triple.Triple
	body      []byte
	userBytes int // subject, property and object bytes of every triple sent
}

// ingestInputs is everything serve-ingest feeds the server, generated
// from the seed.
type ingestInputs struct {
	graph   []triple.Triple // the loaded graph, prices included
	tsv     []byte
	queries []string
	probes  []string
	warm    string
	floors  map[string]int // per query: the fewest hits a correct answer holds
	batches []batch
}

func genIngest(cfg ingestConfig, seed int64, nBatches int) (*ingestInputs, error) {
	acfg := auctionConfig(cfg.Lots, seed)
	in := &ingestInputs{graph: workload.AuctionGraph(acfg)}
	prng := rand.New(rand.NewSource(subSeed(seed, streamPrices)))
	prices := make([]int64, cfg.Lots+1)
	for i := 1; i <= cfg.Lots; i++ {
		prices[i] = int64(1 + prng.Intn(1000))
		in.graph = append(in.graph, triple.Triple{Subject: lotID(i), Property: "price", Obj: triple.Int(prices[i]), P: 1})
	}
	var buf bytes.Buffer
	if err := triple.WriteTSV(&buf, in.graph); err != nil {
		return nil, err
	}
	in.tsv = buf.Bytes()

	vocab := workload.NewVocabulary(acfg.VocabSize, acfg.Seed)
	qs := queryPool(vocab, cfg.Pool+cfg.Probes+1, 3, subSeed(seed, streamLotQueries))
	in.warm, in.probes, in.queries = qs[0], qs[1:cfg.Probes+1], qs[cfg.Probes+1:]
	// New lots only add matches, so floors over the loaded graph hold
	// for the whole run.
	in.floors = map[string]int{}
	lotMatchIndex(in.graph).floors(in.floors, searchK, qs...)

	brng := rand.New(rand.NewSource(subSeed(seed, streamBatches)))
	nextLot := cfg.Lots
	lotSlot := 0
	for i := 0; i < nBatches; i++ {
		if i%cfg.LotEvery == 0 {
			lotSlot = i + brng.Intn(cfg.LotEvery)
		}
		var b batch
		if i == lotSlot {
			b.lots = true
			for j := 0; j < cfg.LotBatch; j++ {
				nextLot++
				id := lotID(nextLot)
				b.appends = append(b.appends,
					triple.Triple{Subject: id, Property: "type", Obj: triple.String("lot"), P: 1},
					triple.Triple{Subject: id, Property: "title", Obj: triple.String(vocab.Text(6)), P: 1},
					triple.Triple{Subject: id, Property: "description", Obj: triple.String(vocab.Text(acfg.LotDescLen)), P: 1},
					triple.Triple{Subject: id, Property: "hasAuction", Obj: triple.String(auctionID(1 + brng.Intn(acfg.Auctions))), P: 1},
					triple.Triple{Subject: id, Property: "hasSeller", Obj: triple.String(fmt.Sprintf("seller%06d", 1+brng.Intn(acfg.Sellers))), P: 1},
				)
			}
		} else {
			picked := map[int]bool{}
			for len(picked) < cfg.PriceBatch {
				lot := 1 + brng.Intn(cfg.Lots)
				if picked[lot] {
					continue
				}
				picked[lot] = true
				old := prices[lot]
				prices[lot] = old + 1 + int64(brng.Intn(50))
				b.appends = append(b.appends, triple.Triple{Subject: lotID(lot), Property: "price", Obj: triple.Int(prices[lot]), P: 1})
				b.deletes = append(b.deletes, triple.Triple{Subject: lotID(lot), Property: "price", Obj: triple.Int(old), P: 1})
			}
		}
		body := struct {
			Triples []wireTriple `json:"triples"`
			Deletes []wireTriple `json:"deletes,omitempty"`
		}{}
		for _, t := range b.appends {
			body.Triples = append(body.Triples, wire(t))
			b.userBytes += len(t.Subject) + len(t.Property) + len(t.Obj.Format())
		}
		for _, t := range b.deletes {
			body.Deletes = append(body.Deletes, wire(t))
			b.userBytes += len(t.Subject) + len(t.Property) + len(t.Obj.Format())
		}
		var err error
		if b.body, err = json.Marshal(body); err != nil {
			return nil, err
		}
		in.batches = append(in.batches, b)
	}
	return in, nil
}

func wire(t triple.Triple) wireTriple {
	w := wireTriple{Subject: t.Subject, Property: t.Property, Object: t.Obj.Str}
	if t.Obj.Kind == vector.Int64 {
		w.Object = t.Obj.Int
	}
	return w
}

// ---------------------------------------------------------------------------
// The server process.

// serverProc is one irdb-server incarnation.
type serverProc struct {
	cmd    *exec.Cmd
	base   string
	exited chan error
	log    *os.File
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer starts irdb-server over tsvPath with walDir as its
// durability directory and returns once it is ready, with the time that
// took.
func startServer(cfg ingestConfig, tsvPath, walDir, logPath string) (*serverProc, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(cfg.ServerBin, "-addr", addr, "-data", tsvPath, "-wal", walDir,
		"-fsync", fsyncPolicy, "-mem-mb", strconv.Itoa(cfg.MemMB))
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, err
	}
	p := &serverProc{cmd: cmd, base: "http://" + addr, exited: make(chan error, 1), log: logf}
	go func() { p.exited <- cmd.Wait() }()
	hc := &http.Client{Timeout: time.Second, Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	deadline := start.Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-p.exited:
			p.exited <- err
			p.kill()
			return nil, 0, fmt.Errorf("irdb-server exited during start-up (%v): %s", err, logTail(logPath))
		default:
		}
		resp, err := hc.Get(p.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, time.Since(start), nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	p.kill()
	return nil, 0, fmt.Errorf("irdb-server not ready after 60s: %s", logTail(logPath))
}

// logTail returns the end of the server's log for an error message; the
// run directory holding the log is removed when the run ends.
func logTail(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	if len(b) > 2048 {
		b = b[len(b)-2048:]
	}
	return strings.TrimSpace(string(b))
}

// kill stops the server with SIGKILL — a crash, not a shutdown — and
// waits for the process to end.
func (p *serverProc) kill() {
	_ = p.cmd.Process.Kill() // fails only when the process already ended
	err := <-p.exited
	p.exited <- err
	p.log.Close()
}

func (p *serverProc) stats() (*serverStats, error) {
	resp, err := http.Get(p.base + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st serverStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("decode /stats: %w", err)
	}
	return &st, nil
}

// serverStats is the part of GET /stats the benchmark reads.
type serverStats struct {
	Cache     catalog.Stats `json:"cache"`
	WAL       *wal.Stats    `json:"wal"`
	Ingest    ingest.Stats  `json:"ingest"`
	Admission struct {
		QueueWaitMS int64 `json:"queue_wait_ms"`
	} `json:"admission"`
	Memory struct {
		PoolPeak     int64 `json:"pool_peak"`
		BudgetDenied int64 `json:"budget_denied"`
	} `json:"memory"`
	Faults struct {
		Shed int64 `json:"shed_requests"`
	} `json:"faults"`
}

// searcher is the reader's connection: one keep-alive connection, no
// retries, so a refused request counts as an error.
func searcher(base string) (*client.Client, *http.Client) {
	hc := &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxConnsPerHost: 1}}
	return client.New(base, client.Config{MaxAttempts: 1, HTTPClient: hc}), hc
}

func searchHits(resp *client.SearchResponse) []hit {
	out := make([]hit, len(resp.Results))
	for i, r := range resp.Results {
		out[i] = hit{ID: r.Subject, Score: r.Score}
	}
	return out
}

// checkSearch validates one search's result: at least the floor the
// generated text implies (k whenever k lots hold a query word), at most
// k, in ranking order.
func checkSearch(in *ingestInputs, q string, hits []hit) error {
	floor, ok := in.floors[q]
	if !ok {
		return fmt.Errorf("search %q: not a generated query", q)
	}
	if len(hits) < floor || len(hits) > searchK {
		return fmt.Errorf("search %q: %d hits, want %d to %d", q, len(hits), floor, searchK)
	}
	if !sort.SliceIsSorted(hits, func(i, j int) bool { return hits[i].Score > hits[j].Score }) {
		return fmt.Errorf("search %q: hits not ranked by descending score", q)
	}
	return nil
}

// appendAck is POST /append's answer.
type appendAck struct {
	Appended  int    `json:"appended_triples"`
	Deleted   int    `json:"deleted_triples"`
	Watermark uint64 `json:"watermark"`
}

func postAppend(hc *http.Client, base string, b *batch) (appendAck, error) {
	var ack appendAck
	resp, err := hc.Post(base+"/append", "application/json", bytes.NewReader(b.body))
	if err != nil {
		return ack, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		return ack, fmt.Errorf("append: status %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		return ack, fmt.Errorf("decode append answer: %w", err)
	}
	if ack.Appended != len(b.appends) || ack.Deleted != len(b.deletes) {
		return ack, fmt.Errorf("append: %d appended and %d deleted, want %d and %d",
			ack.Appended, ack.Deleted, len(b.appends), len(b.deletes))
	}
	return ack, nil
}

// ingestRun is what the measured window of serve-ingest observed.
type ingestRun struct {
	search       samples
	serverMS     samples // server-reported latency of the same searches
	searchIssued map[string]int
	sends        []sendRecord
	kinds        []bool // per send: new-lot batch
	acked        uint64 // watermark of the last acknowledged append
	attempted    int64
	failed       int64
	errs         []string
	elapsed      time.Duration
	retries      int64
	cpu          float64
}

func (r *ingestRun) fail(msg string) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, msg)
	}
}

// measureIngest runs the reader (closed loop) and the writer (open loop
// at rate) against the server for dur.
func measureIngest(in *ingestInputs, base string, rate float64, dur time.Duration) *ingestRun {
	r := &ingestRun{searchIssued: map[string]int{}}
	cpu0 := cpuSeconds()
	start := time.Now()
	deadline := start.Add(dur)
	done := make(chan struct{})
	var readerEnd time.Time
	go func() {
		defer close(done)
		cl, hc := searcher(base)
		defer hc.CloseIdleConnections()
		defer func() { r.retries = cl.Retries() }()
		for i := 0; ; i++ {
			t0 := time.Now()
			if !t0.Before(deadline) {
				return
			}
			q := in.queries[i%len(in.queries)]
			r.searchIssued[q]++
			resp, err := cl.Search(context.Background(), searchStrategy, q, searchK)
			readerEnd = time.Now()
			r.attempted++
			if err == nil {
				err = checkSearch(in, q, searchHits(resp))
			}
			if err != nil {
				r.fail(err.Error())
			} else {
				r.search.add(readerEnd.Sub(t0))
				r.serverMS = append(r.serverMS, resp.LatencyMS)
			}
		}
	}()
	wc := &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer wc.CloseIdleConnections()
	interval := time.Duration(float64(time.Second) / rate)
	r.sends = runOpenLoop(schedule{start: start, interval: interval}, deadline, wallClock{}, func(i int) error {
		if i >= len(in.batches) {
			return fmt.Errorf("batch %d: only %d generated", i, len(in.batches))
		}
		ack, err := postAppend(wc, base, &in.batches[i])
		if err == nil {
			r.acked = ack.Watermark
		}
		return err
	})
	writerEnd := time.Now()
	<-done
	r.cpu = cpuSeconds() - cpu0
	for i, s := range r.sends {
		r.kinds = append(r.kinds, in.batches[min(i, len(in.batches)-1)].lots)
		r.attempted++
		if s.Err != nil {
			r.fail(s.Err.Error())
		}
	}
	end := readerEnd
	if writerEnd.After(end) {
		end = writerEnd
	}
	r.elapsed = end.Sub(start)
	return r
}

// probe runs the given queries on a fresh connection, gates each result
// with checkSearch and returns their digests.
func probe(in *ingestInputs, base string, qs []string, rep *report) ([]uint64, error) {
	cl, hc := searcher(base)
	defer hc.CloseIdleConnections()
	out := make([]uint64, len(qs))
	for i, q := range qs {
		resp, err := cl.Search(context.Background(), searchStrategy, q, searchK)
		if err != nil {
			return nil, fmt.Errorf("probe %q: %w", q, err)
		}
		hits := searchHits(resp)
		err = checkSearch(in, q, hits)
		rep.gate(err == nil, "probe: %v", err)
		out[i] = digest(hits)
	}
	return out, nil
}

// serveIngest runs serve-ingest: the irdb-server binary as a child
// process, a reader and a writer over loopback, then kill -9 and restart
// on the same write-ahead log. traced adds the per-layer split.
func serveIngest(cfg ingestConfig, seed int64, dur time.Duration, traced bool, rep *report) error {
	if cfg.ServerBin == "" || cfg.WorkDir == "" {
		return errors.New("serve-ingest needs --server-bin and --work-dir")
	}
	dir, err := os.MkdirTemp(cfg.WorkDir, "serve-ingest-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cpu0 := cpuSeconds()
	nBatches := int(cfg.BatchRate*dur.Seconds()) + 1
	in, err := genIngest(cfg, seed, nBatches)
	if err != nil {
		return err
	}
	genCPU := cpuSeconds() - cpu0
	tsvPath := filepath.Join(dir, "auction.tsv")
	if err := os.WriteFile(tsvPath, in.tsv, 0o644); err != nil {
		return err
	}
	logPath := filepath.Join(dir, "server.log")

	var setups samples
	var srv *serverProc
	var walDir string
	for i := 0; i < cfg.Setups; i++ {
		if srv != nil {
			srv.kill()
		}
		walDir = filepath.Join(dir, fmt.Sprintf("wal-%d", i))
		p, ready, err := startServer(cfg, tsvPath, walDir, logPath)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		srv = p
		t0 := time.Now()
		if _, err := probe(in, srv.base, []string{in.warm}, rep); err != nil {
			srv.kill()
			return fmt.Errorf("warm: %w", err)
		}
		setups.add(ready + time.Since(t0))
	}
	defer func() { srv.kill() }()

	st0, err := srv.stats()
	if err != nil {
		return err
	}
	setupHWM, err := vmHWM(fmt.Sprintf("/proc/%d/status", srv.cmd.Process.Pid))
	if err != nil {
		return err
	}
	run := measureIngest(in, srv.base, cfg.BatchRate, dur)
	st1, err := srv.stats()
	if err != nil {
		return err
	}
	hwm, err := vmHWM(fmt.Sprintf("/proc/%d/status", srv.cmd.Process.Pid))
	if err != nil {
		return err
	}
	rep.problem(run.errs...)
	rep.count(run.attempted, run.failed)
	rep.gate(st1.Ingest.Watermark == run.acked, "server watermark %d before the kill, last acknowledged %d", st1.Ingest.Watermark, run.acked)
	rep.gate(st1.Cache.Evictions == 0, "cache evictions: %d, want 0", st1.Cache.Evictions)
	rep.gate(st1.Memory.BudgetDenied == 0, "budget denials: %d, want 0", st1.Memory.BudgetDenied)
	rep.gate(st1.Faults.Shed == 0, "shed requests: %d, want 0", st1.Faults.Shed)
	rep.gate(run.retries == 0, "client retries: %d, want 0", run.retries)

	want, err := probe(in, srv.base, in.probes, rep)
	if err != nil {
		return err
	}
	var recovery samples
	var replayed int64
	for i := 0; i < cfg.Restarts; i++ {
		srv.kill()
		p, ready, err := startServer(cfg, tsvPath, walDir, logPath)
		if err != nil {
			return fmt.Errorf("restart %d: %w", i+1, err)
		}
		srv = p
		recovery.add(ready)
		st, err := srv.stats()
		if err != nil {
			return err
		}
		if st.WAL != nil && i == 0 {
			replayed = st.WAL.ReplayedRecords
		}
		rep.gate(st.Ingest.Watermark == run.acked, "restart %d: watermark %d, last acknowledged %d", i+1, st.Ingest.Watermark, run.acked)
		got, err := probe(in, srv.base, in.probes, rep)
		if err != nil {
			return fmt.Errorf("restart %d: %w", i+1, err)
		}
		for j := range want {
			rep.gate(got[j] == want[j], "restart %d: probe %q returned other hits than before the kill", i+1, in.probes[j])
		}
	}

	var appends, prices, lots samples
	var lags, service samples
	for i, s := range run.sends {
		if s.Err != nil {
			continue
		}
		appends.add(s.latency())
		lags.add(s.lag())
		service.add(s.Done.Sub(s.Sent))
		if run.kinds[i] {
			lots.add(s.latency())
		} else {
			prices.add(s.latency())
		}
	}
	if !traced {
		setupSum := summarize(setups)
		rep.metric("setup_s", setupSum.P50/1e3, "s", fmt.Sprintf("median of %d server starts", setupSum.N))
		ops := len(run.search) + len(appends)
		rep.metric("ops_per_s", float64(ops)/run.elapsed.Seconds(), "1/s",
			fmt.Sprintf("n=%d: %d searches, %d appends at %g/s", ops, len(run.search), len(appends), cfg.BatchRate))
		rep.metric("peak_rss_mb", hwm, "MB", fmt.Sprintf("irdb-server VmHWM (%.1f MB after set-up)", setupHWM))
		rep.latency("strategy", summarize(run.search), true)
		// search-hot has no restart and no writes, so recovery and append
		// latency are printed, not metrics of BENCHMARK.json.
		recSum := summarize(recovery)
		rep.extra("recovery_s", recSum.P50/1e3, "s", fmt.Sprintf("median of %d kill -9 restarts", recSum.N))
		rep.latency("append", summarize(appends), false)
		rep.note(fmt.Sprintf("fsync %s; appends: %d price batches (p50 %.3f ms), %d new-lot batches (p50 %.3f ms); from send p50 %.3f ms; writer lag p50 %.3f p99 %.3f ms; generator CPU %.2fs + %.2fs",
			fsyncPolicy, len(prices), summarize(prices).P50, len(lots), summarize(lots).P50, summarize(service).P50,
			summarize(lags).P50, summarize(lags).Tail, genCPU, run.cpu))
		return nil
	}

	// Per-layer split: client-side timings and /stats deltas from the run
	// above, then an in-process replay of the same batches and queries.
	// The layers search-hot does not run are printed, not metrics of
	// BENCHMARK.json.
	var overhead samples
	for i, ms := range run.search {
		overhead = append(overhead, ms-run.serverMS[i])
	}
	hits, misses := st1.Cache.Hits-st0.Cache.Hits, st1.Cache.Misses-st0.Cache.Misses
	rep.layer("catalog.hit_rate", ratio(float64(hits), float64(hits+misses)), "ratio")
	rep.layer("catalog.shared_flights", float64(st1.Cache.Shared-st0.Cache.Shared), "count")
	rep.layer("catalog.resident_mb", float64(st1.Cache.Bytes+st1.Cache.AuxBytes)/(1<<20), "MB")
	rep.extra("catalog.stale_drop_ratio", ratio(float64(st1.Cache.StaleDrops-st0.Cache.StaleDrops), float64(misses)), "ratio", "")
	var userBytes int
	for i := range run.sends {
		userBytes += in.batches[i].userBytes
	}
	if st0.WAL != nil && st1.WAL != nil {
		rep.extra("wal.fsyncs_per_batch", ratio(float64(st1.WAL.Fsyncs-st0.WAL.Fsyncs), float64(len(run.sends))), "count", "")
		rep.extra("wal.bytes_per_user_byte", ratio(float64(st1.WAL.Bytes-st0.WAL.Bytes), float64(userBytes)), "ratio", "")
	}
	rep.extra("wal.replayed_records", float64(replayed), "count", "")
	rep.extra("server.overhead_ms.strategy", overhead.mean(), "ms", "")
	requests := float64(len(run.search) + len(run.sends))
	rep.extra("server.queue_wait_ms", ratio(float64(st1.Admission.QueueWaitMS-st0.Admission.QueueWaitMS), requests), "ms", "")
	rep.extra("memory.pool_peak_mb", float64(st1.Memory.PoolPeak)/(1<<20), "MB", "")
	rep.extra("memory.budget_denials", float64(st1.Memory.BudgetDenied), "count", "")
	rep.extra("server.shed", float64(st1.Faults.Shed), "count", "")
	rep.extra("client.retries", float64(run.retries), "count", "")
	rep.layer("loadgen.lag_p99_ms", summarize(lags).Tail, "ms")
	rep.layer("loadgen.cpu_s", genCPU+run.cpu, "s")
	distinct := len(run.searchIssued)
	rep.layer("loadgen.repeat_share.strategy", ratio(float64(len(run.search)-distinct), float64(len(run.search))), "ratio")
	return replayIngest(in, len(run.sends), filepath.Join(dir, "replay"), rep)
}

// replayIngest applies the measured run's batches in process, through a
// durable ingest.Manager under the server's fsync policy and through a
// memory-only triple.Store, searching as the server would after each
// new-lot batch and the price batch that follows it, and reports the
// write path's layers, the rebuild cost of invalidated views and the
// layers of a hot search.
func replayIngest(in *ingestInputs, n int, dir string, rep *report) error {
	policy, err := wal.ParsePolicy(fsyncPolicy)
	if err != nil {
		return err
	}
	cat := catalog.New(0)
	store := triple.NewStore(cat)
	mgr := ingest.New(cat, store, "docs")
	if err := mgr.OpenDurable(dir, wal.Options{Policy: policy}); err != nil {
		return err
	}
	defer mgr.Close()
	if err := mgr.ReplaceTriples(in.graph); err != nil {
		return err
	}
	memStore := triple.NewStore(catalog.New(0))
	memStore.Load(in.graph)

	ctx := engine.NewCtx(cat)
	st := strategy.Auction(0.7, 0.3)
	// irdb-server's built-in synonym dictionary (its -synonyms default).
	syn := text.SynonymDict(workload.Synonyms(auctionVocab, 200, 2, 42))
	var compile, optimize, exec, rebuild samples
	var nodeExecs, cacheHits int64 // over the hot searches
	var lotInval, priceInval float64
	var lotN int
	// search runs one auction-lots search; hot is false for the first
	// search after an invalidation, which rebuilds the views.
	search := func(q string, hot bool) error {
		t0 := time.Now()
		plan, err := st.Compile(&strategy.Compiler{Query: q, Synonyms: syn})
		if err != nil {
			return err
		}
		t1 := time.Now()
		ranked := ctx.Optimize(engine.NewTopN(plan, searchK, engine.SortSpec{Col: "", Desc: true}, engine.SortSpec{Col: triple.ColSubject}))
		t2 := time.Now()
		compile.add(t1.Sub(t0))
		optimize.add(t2.Sub(t1))
		n0, c0 := ctx.NodeExecs(), ctx.CacheHits()
		rel, err := ctx.Exec(context.Background(), ranked)
		if err != nil {
			return err
		}
		if hot {
			exec.add(time.Since(t2))
			nodeExecs += ctx.NodeExecs() - n0
			cacheHits += ctx.CacheHits() - c0
		} else {
			rebuild.add(time.Since(t2))
		}
		prob := rel.Prob()
		hits := make([]hit, rel.NumRows())
		for i := range hits {
			hits[i] = hit{ID: rel.Col(0).Vec.Format(i), Score: prob[i]}
		}
		err = checkSearch(in, q, hits)
		rep.gate(err == nil, "replay: %v", err)
		return nil
	}
	if err := search(in.warm, false); err != nil {
		return err
	}
	compile, optimize, rebuild = nil, nil, nil
	var ingestMS, tripleMS [2]samples // [0] price, [1] lots
	for i := 0; i < n; i++ {
		b := &in.batches[i]
		kind := 0
		if b.lots {
			kind = 1
		}
		inv0 := cat.Cache().Stats().DepInvalidations
		t0 := time.Now()
		if _, err := mgr.AppendTriples(b.appends); err != nil {
			return err
		}
		if _, err := mgr.DeleteTriples(b.deletes); err != nil {
			return err
		}
		ingestMS[kind].add(time.Since(t0))
		inv := float64(cat.Cache().Stats().DepInvalidations - inv0)
		t1 := time.Now()
		memStore.Append(b.appends)
		memStore.Delete(b.deletes)
		tripleMS[kind].add(time.Since(t1))
		// Search after every new-lot batch (the rebuild) and after the
		// price batch that follows it (hot again, unless the price batch
		// invalidated the views).
		q := in.queries[i%len(in.queries)]
		switch {
		case b.lots:
			lotInval += inv
			lotN++
			if err := search(q, false); err != nil {
				return err
			}
		case i > 0 && in.batches[i-1].lots:
			priceInval += inv
			if err := search(q, true); err != nil {
				return err
			}
		default:
			priceInval += inv
		}
	}
	rep.gate(priceInval == 0, "price batches invalidated %g cache entries, want 0", priceInval)
	rep.layer("strategy.compile_ms.strategy", compile.mean(), "ms")
	rep.layer("engine.optimize_ms.strategy", optimize.mean(), "ms")
	rep.layer("engine.optimize_share.strategy", ratio(optimize.mean(), compile.mean()+optimize.mean()+exec.mean()), "ratio")
	rep.layer("engine.exec_ms.strategy", exec.mean(), "ms")
	rep.layer("engine.node_execs.strategy", ratio(float64(nodeExecs), float64(len(exec))), "count")
	rep.layer("engine.cache_hits.strategy", ratio(float64(cacheHits), float64(len(exec))), "count")
	rep.extra("engine.rebuild_ms", rebuild.mean(), "ms", "")
	rep.extra("catalog.invalidations_per_lot_batch", ratio(lotInval, float64(lotN)), "count", "")
	rep.extra("triple.append_ms.price", tripleMS[0].mean(), "ms", "")
	rep.extra("triple.append_ms.lots", tripleMS[1].mean(), "ms", "")
	rep.extra("ingest.append_ms.price", ingestMS[0].mean(), "ms", "")
	rep.extra("ingest.append_ms.lots", ingestMS[1].mean(), "ms", "")
	rep.note(fmt.Sprintf("replay: %d batches (%d new-lot, %d hot searches)", n, lotN, len(exec)))
	return nil
}
