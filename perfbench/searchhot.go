package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"irdb"
	"irdb/internal/catalog"
	"irdb/internal/engine"
	"irdb/internal/expr"
	"irdb/internal/fault"
	"irdb/internal/ir"
	"irdb/internal/relation"
	"irdb/internal/spinql"
	"irdb/internal/strategy"
	"irdb/internal/text"
	"irdb/internal/triple"
	"irdb/internal/vector"
	"irdb/internal/workload"
)

// The four operation types of search-hot.
const (
	opDocs = iota
	opStrategy
	opProduction
	opPrepared
	numOps
)

var opNames = [numOps]string{"docs", "strategy", "production", "prepared"}

// strategyOf names the installed strategy each strategy operation runs.
var strategyOf = [numOps]string{opStrategy: "auction-lots", opProduction: "auction-lots-production"}

// opWeights is each kind's share of a client's operations. production
// costs about six docs searches, so it runs a quarter as often as the
// others; that leaves docs, strategy and prepared over a thousand samples
// each in a 40 s run (a p99 with ten samples beyond it), with a margin
// for a slower machine.
var opWeights = [numOps]int{opDocs: 4, opStrategy: 4, opProduction: 1, opPrepared: 4}

// kOf is the number of hits each search operation asks for.
var kOf = [numOps]int{opDocs: 10, opStrategy: 50, opProduction: 50}

// preparedSrc returns the lots of ?auction with their titles: a
// selection joined to a second selection of the triples table. Its plan
// holds no materialized view, so it runs uncached scans and a join every
// time — the control that bypasses the views and the per-query optimizer
// the other three operations exercise.
const preparedSrc = `
lots = PROJECT INDEPENDENT [$1,$6] (
  JOIN INDEPENDENT [$1=$1] (
    SELECT [$2="hasAuction" and $3=?auction] (triples),
    SELECT [$2="title"] (triples) ) );`

// hotClients is search-hot's number of closed-loop clients: one per CPU
// of the 2-CPU reference machine.
const hotClients = 2

// hotConfig sizes search-hot.
type hotConfig struct {
	Lots, Docs, DocLen, DocVocab int
	Setups                       int
	Probes                       int // fixed probe queries per operation type
	Pool                         int // distinct queries per operation type
}

func defaultHotConfig() hotConfig {
	return hotConfig{Lots: 16000, Docs: 20000, DocLen: 80, DocVocab: 30000,
		Setups: 3, Probes: 8, Pool: 20000}
}

// hotInputs is everything search-hot feeds the program, generated from the
// seed.
type hotInputs struct {
	graph    []triple.Triple
	docs     []workload.Doc
	synonyms map[string][]string
	lotCount map[string]int
	floors   [numOps]map[string]int // per search query: the fewest hits a correct answer holds
	pools    [numOps][]string
	probes   [numOps][]string
	warm     [numOps]string
	seqs     [][]int // per client operation kinds
}

func genHot(cfg hotConfig, seed int64) *hotInputs {
	acfg := auctionConfig(cfg.Lots, seed)
	in := &hotInputs{
		graph:    workload.AuctionGraph(acfg),
		docs:     workload.GenDocs(cfg.Docs, cfg.DocLen, cfg.DocVocab, subSeed(seed, streamDocs)),
		synonyms: workload.Synonyms(acfg.VocabSize, 200, 2, acfg.Seed),
	}
	in.lotCount = lotsPerAuction(in.graph)
	docVocab := workload.NewVocabulary(cfg.DocVocab, subSeed(seed, streamDocs))
	lotVocab := workload.NewVocabulary(acfg.VocabSize, acfg.Seed)
	// Probes, warm-up queries and the measured pool come from one draw
	// of distinct queries, so no measured query repeats a probe.
	extra := cfg.Probes + 1
	docQ := queryPool(docVocab, cfg.Pool+extra, 3, subSeed(seed, streamDocQueries))
	lotQ := queryPool(lotVocab, 2*cfg.Pool+2*extra, 3, subSeed(seed, streamLotQueries))
	split := func(qs []string) (warm string, probes, pool []string) {
		return qs[0], qs[1:extra], qs[extra:]
	}
	in.warm[opDocs], in.probes[opDocs], in.pools[opDocs] = split(docQ)
	in.warm[opStrategy], in.probes[opStrategy], in.pools[opStrategy] = split(lotQ[:cfg.Pool+extra])
	in.warm[opProduction], in.probes[opProduction], in.pools[opProduction] = split(lotQ[cfg.Pool+extra:])
	rng := rand.New(rand.NewSource(subSeed(seed, streamPrepared)))
	auctions := make([]string, cfg.Pool+extra)
	for i := range auctions {
		auctions[i] = auctionID(1 + rng.Intn(acfg.Auctions))
	}
	in.warm[opPrepared], in.probes[opPrepared], in.pools[opPrepared] = split(auctions)
	docIdx, lotIdx := docsMatchIndex(in.docs), lotMatchIndex(in.graph)
	for _, k := range []int{opDocs, opStrategy, opProduction} {
		idx := lotIdx
		if k == opDocs {
			idx = docIdx
		}
		in.floors[k] = map[string]int{}
		idx.floors(in.floors[k], kOf[k], in.warm[k])
		idx.floors(in.floors[k], kOf[k], in.probes[k]...)
		idx.floors(in.floors[k], kOf[k], in.pools[k]...)
	}
	irng := rand.New(rand.NewSource(subSeed(seed, streamInterleave)))
	for c := 0; c < hotClients; c++ {
		in.seqs = append(in.seqs, interleave(opWeights[:], cfg.Pool, irng))
	}
	return in
}

// facadeTriples converts the generated graph to the facade's input form.
func facadeTriples(graph []triple.Triple) []irdb.Triple {
	out := make([]irdb.Triple, len(graph))
	for i, t := range graph {
		out[i] = irdb.Triple{Subject: t.Subject, Property: t.Property, Object: t.Obj.Str, P: t.P}
	}
	return out
}

func facadeDocs(docs []workload.Doc) []irdb.Doc {
	out := make([]irdb.Doc, len(docs))
	for i, d := range docs {
		out[i] = irdb.Doc{ID: docID(d.ID), Text: d.Data}
	}
	return out
}

// opFunc runs one operation and returns its ranked hits.
type opFunc func(ctx context.Context, kind int, q string) ([]hit, error)

// hotDB is the facade under test.
type hotDB struct {
	db   *irdb.DB
	stmt *irdb.Stmt
}

// openHot opens, loads and warms a facade database: the set-up search-hot
// times.
func openHot(in *hotInputs, ts []irdb.Triple, docs []irdb.Doc) (*hotDB, error) {
	db, err := irdb.Open(irdb.WithSynonyms(in.synonyms))
	if err != nil {
		return nil, err
	}
	h := &hotDB{db: db}
	if err := h.load(in, ts, docs); err != nil {
		db.Close()
		return nil, err
	}
	return h, nil
}

func (h *hotDB) load(in *hotInputs, ts []irdb.Triple, docs []irdb.Doc) error {
	if err := h.db.LoadTriples(ts); err != nil {
		return err
	}
	if err := h.db.LoadDocs(docs); err != nil {
		return err
	}
	h.db.InstallBuiltinStrategies()
	stmt, err := h.db.Prepare(preparedSrc)
	if err != nil {
		return err
	}
	h.stmt = stmt
	for kind := 0; kind < numOps; kind++ {
		if _, err := h.run(context.Background(), kind, in.warm[kind]); err != nil {
			return fmt.Errorf("warm %s: %w", opNames[kind], err)
		}
	}
	return nil
}

func (h *hotDB) run(ctx context.Context, kind int, q string) ([]hit, error) {
	switch kind {
	case opDocs:
		hs, err := h.db.SearchDocs(ctx, q, kOf[kind])
		return facadeHits(hs), err
	case opStrategy, opProduction:
		hs, err := h.db.Search(ctx, strategyOf[kind], q, kOf[kind])
		return facadeHits(hs), err
	default:
		res, err := h.stmt.Query(ctx, irdb.P("auction", q))
		if err != nil {
			return nil, err
		}
		out := make([]hit, res.NumRows())
		for i := range out {
			out[i] = hit{ID: res.Value(i, 0) + "\t" + res.Value(i, 1), Score: res.Prob(i)}
		}
		return out, nil
	}
}

func facadeHits(hs []irdb.Hit) []hit {
	out := make([]hit, len(hs))
	for i, h := range hs {
		out[i] = hit{ID: h.ID, Score: h.Score}
	}
	return out
}

// checkHits validates one operation's result without a reference run:
// for prepared the exact row count the generated graph implies; for a
// search at least the floor the generated text implies (k whenever k
// items hold a query word), at most k, in ranking order.
func checkHits(in *hotInputs, kind int, q string, hits []hit) error {
	if kind == opPrepared {
		if want := in.lotCount[q]; len(hits) != want {
			return fmt.Errorf("prepared ?auction=%s: %d rows, want %d", q, len(hits), want)
		}
		return nil
	}
	floor, ok := in.floors[kind][q]
	if !ok {
		return fmt.Errorf("%s %q: not a generated query", opNames[kind], q)
	}
	if len(hits) < floor || len(hits) > kOf[kind] {
		return fmt.Errorf("%s %q: %d hits, want %d to %d", opNames[kind], q, len(hits), floor, kOf[kind])
	}
	if !sort.SliceIsSorted(hits, func(i, j int) bool { return hits[i].Score > hits[j].Score }) {
		return fmt.Errorf("%s %q: hits not ranked by descending score", opNames[kind], q)
	}
	return nil
}

// queryFor returns the query client c sends as its j-th operation of a
// kind: clients take alternate pool entries, so no two operations share a
// query until the pool wraps.
func queryFor(in *hotInputs, clients, c, kind, j int) string {
	pool := in.pools[kind]
	return pool[(j*clients+c)%len(pool)]
}

// loopResult is what a closed-loop phase measured.
type loopResult struct {
	lat       [numOps]samples
	attempted int64
	failed    int64
	elapsed   time.Duration
	gaps      samples // generator time between one operation's end and the next one's start
	issued    [numOps]map[string]int
	errs      []string
}

func (r *loopResult) fail(msg string) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, msg)
	}
}

// repeatShare is the share of a kind's operations whose query an earlier
// operation of the run already sent.
func (r *loopResult) repeatShare(kind int) float64 {
	total, distinct := 0, len(r.issued[kind])
	for _, n := range r.issued[kind] {
		total += n
	}
	if total == 0 {
		return 0
	}
	return float64(total-distinct) / float64(total)
}

// closedLoop runs in.seqs with one goroutine per client for dur: each
// client sends its next operation only when the previous one returned.
// mk builds a client's operation function (traced clients need their own
// span buffers).
func closedLoop(in *hotInputs, dur time.Duration, mk func(client int) opFunc) *loopResult {
	clients := len(in.seqs)
	parts := make([]*loopResult, clients)
	// Every window starts at the same point of the GC cycle, so runs do
	// not differ by where a collection of the large heap happens to fall.
	runtime.GC()
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &loopResult{}
			for k := range r.issued {
				r.issued[k] = map[string]int{}
			}
			parts[c] = r
			var panicErr error
			defer func() {
				if panicErr != nil {
					r.fail(panicErr.Error())
				}
			}()
			defer fault.Recover(fmt.Sprintf("client %d", c), &panicErr)
			run := mk(c)
			var perKind [numOps]int
			var lastEnd time.Time
			seq := in.seqs[c]
			for i := 0; ; i++ {
				t0 := time.Now()
				if !t0.Before(deadline) {
					break
				}
				if !lastEnd.IsZero() {
					r.gaps.add(t0.Sub(lastEnd))
				}
				kind := seq[i%len(seq)]
				q := queryFor(in, clients, c, kind, perKind[kind])
				perKind[kind]++
				r.issued[kind][q]++
				hits, err := run(context.Background(), kind, q)
				lastEnd = time.Now()
				r.attempted++
				if err == nil {
					err = checkHits(in, kind, q, hits)
				}
				if err != nil {
					r.fail(fmt.Sprintf("client %d %s: %v", c, opNames[kind], err))
					continue
				}
				r.lat[kind].add(lastEnd.Sub(t0))
			}
			if el := lastEnd.Sub(start); el > r.elapsed {
				r.elapsed = el
			}
		}(c)
	}
	wg.Wait()
	out := &loopResult{}
	for k := range out.issued {
		out.issued[k] = map[string]int{}
	}
	for _, p := range parts {
		for k := 0; k < numOps; k++ {
			out.lat[k] = append(out.lat[k], p.lat[k]...)
			for q, n := range p.issued[k] {
				out.issued[k][q] += n
			}
		}
		out.attempted += p.attempted
		out.failed += p.failed
		out.gaps = append(out.gaps, p.gaps...)
		out.errs = append(out.errs, p.errs...)
		out.elapsed = max(out.elapsed, p.elapsed)
	}
	return out
}

// probeAll runs every probe query of every kind from each client
// concurrently and checks that all clients got the same hits for the same
// query. It returns the operations attempted and failed.
func probeAll(in *hotInputs, book *digestBook, who string, mk func(client int) opFunc) (attempted, failed int64) {
	clients := len(in.seqs)
	type res struct {
		key string
		d   uint64
		err error
	}
	results := make([][]res, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			run := mk(c)
			for kind := 0; kind < numOps; kind++ {
				probes := in.probes[kind]
				for j := range probes {
					// Clients walk the probes in opposite orders so the
					// same query runs against different cache states.
					q := probes[j]
					if c%2 == 1 {
						q = probes[len(probes)-1-j]
					}
					hits, err := func() (h []hit, err error) {
						defer fault.Recover("probe", &err)
						return run(context.Background(), kind, q)
					}()
					if err == nil {
						err = checkHits(in, kind, q, hits)
					}
					results[c] = append(results[c], res{key: opNames[kind] + " " + q, d: digest(hits), err: err})
				}
			}
		}(c)
	}
	wg.Wait()
	for c, rs := range results {
		for _, r := range rs {
			attempted++
			switch {
			case r.err != nil:
				failed++
				book.mismatches = append(book.mismatches, fmt.Sprintf("%s: %s client %d: %v", r.key, who, c, r.err))
			case !book.check(r.key, fmt.Sprintf("%s client %d", who, c), r.d):
				failed++
			}
		}
	}
	return attempted, failed
}

// dropInputs releases the generated inputs and returns their memory to
// the operating system, so the database process's peak RSS counts the
// database, not the generator.
func (in *hotInputs) dropInputs() {
	in.graph, in.docs = nil, nil
	runtime.GC()
	debug.FreeOSMemory()
}

// searchHot runs the untraced search-hot workload.
func searchHot(cfg hotConfig, seed int64, dur time.Duration, rep *report) error {
	cpu0 := cpuSeconds()
	in := genHot(cfg, seed)
	ts, docs := facadeTriples(in.graph), facadeDocs(in.docs)
	genCPU := cpuSeconds() - cpu0

	var setups samples
	var h *hotDB
	for i := 0; i < cfg.Setups; i++ {
		if h != nil {
			h.db.Close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if h, err = openHot(in, ts, docs); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups.add(time.Since(t0))
	}
	defer h.db.Close()
	ts, docs = nil, nil
	in.dropInputs()
	// peak_rss_mb on search-hot is the serving peak after load: the
	// generator's inputs share this process, so the load-time peak would
	// count them too.
	if err := resetHWM(); err != nil {
		return fmt.Errorf("reset the peak RSS mark after load: %w", err)
	}

	book := newDigestBook()
	facade := func(int) opFunc { return h.run }
	pa, pf := probeAll(in, book, "facade", facade)
	res := closedLoop(in, dur, facade)
	hwm, err := vmHWM("/proc/self/status")
	if err != nil {
		return err
	}
	st := h.db.Stats()

	rep.problem(book.mismatches...)
	rep.problem(res.errs...)
	rep.count(res.attempted+pa, res.failed+pf)
	rep.gate(st.Cache.Evictions == 0, "cache evictions: %d, want 0", st.Cache.Evictions)
	rep.gate(st.Memory.BudgetDenials == 0, "budget denials: %d, want 0", st.Memory.BudgetDenials)
	rep.gate(st.Faults.Overloaded == 0, "overloaded queries: %d, want 0", st.Faults.Overloaded)

	setupSum := summarize(setups)
	rep.metric("setup_s", setupSum.P50/1e3, "s", fmt.Sprintf("median of %d set-ups", setupSum.N))
	done := int64(0)
	for k := 0; k < numOps; k++ {
		done += int64(len(res.lat[k]))
	}
	rep.metric("ops_per_s", float64(done)/res.elapsed.Seconds(), "1/s", fmt.Sprintf("n=%d, %d clients", done, len(in.seqs)))
	rep.metric("peak_rss_mb", hwm, "MB", "VmHWM while serving, after load")
	// strategy is the one operation serve-ingest runs too, so only its
	// latencies are metrics of BENCHMARK.json; the others are printed.
	for k := 0; k < numOps; k++ {
		rep.latency(opNames[k], summarize(res.lat[k]), k == opStrategy)
	}
	rep.note(fmt.Sprintf("generator CPU %.2fs; closed-loop gap p99 %.4f ms; repeat share docs %.3g strategy %.3g production %.3g prepared %.3g",
		genCPU, summarize(res.gaps).Tail,
		res.repeatShare(opDocs), res.repeatShare(opStrategy), res.repeatShare(opProduction), res.repeatShare(opPrepared)))
	return nil
}

// ---------------------------------------------------------------------------
// Traced search-hot: a replica built from the layers' own public calls.

// span is one timed call into a layer, owned by the operation that made
// it.
type span struct {
	op    int64
	kind  int
	layer string
	start time.Time
	end   time.Time
}

// tracer keeps one client's spans in memory until the run ends.
type tracer struct {
	next  int64
	spans []span
	ops   []span // one per operation, layer "op"
}

func (t *tracer) begin() (int64, time.Time) {
	t.next++
	return t.next, time.Now()
}

// call times f as a span of the given layer.
func (t *tracer) call(op int64, kind int, layer string, f func()) {
	s := span{op: op, kind: kind, layer: layer, start: time.Now()}
	f()
	s.end = time.Now()
	t.spans = append(t.spans, s)
}

func (t *tracer) finish(op int64, kind int, start time.Time) {
	t.ops = append(t.ops, span{op: op, kind: kind, layer: "op", start: start, end: time.Now()})
}

// replica is search-hot's database assembled from the layers directly,
// exactly as the facade assembles it.
type replica struct {
	ctx        *engine.Ctx
	searcher   *ir.Searcher
	strategies [numOps]*strategy.Strategy
	syn        text.SynonymDict
	prepared   engine.Node
}

func newReplica(in *hotInputs) (*replica, error) {
	cat := catalog.New(0)
	triple.NewStore(cat).Load(in.graph)
	b := relation.NewBuilder([]string{"docID", "data"}, []vector.Kind{vector.String, vector.String})
	for _, d := range in.docs {
		b.AddP(1.0, docID(d.ID), d.Data)
	}
	cat.Put(irdb.DocsTable, b.Build())
	ctx := engine.NewCtx(cat)
	searcher, err := ir.NewSearcher(ctx, engine.NewScan(irdb.DocsTable), ir.DefaultParams())
	if err != nil {
		return nil, err
	}
	prog, err := spinql.Parse(preparedSrc, spinql.TriplesEnv())
	if err != nil {
		return nil, err
	}
	naive, err := prog.Result().Compile()
	if err != nil {
		return nil, err
	}
	r := &replica{ctx: ctx, searcher: searcher, syn: text.SynonymDict(in.synonyms), prepared: ctx.Optimize(naive)}
	r.strategies[opStrategy] = strategy.Auction(0.7, 0.3)
	r.strategies[opProduction] = strategy.Production()
	t := &tracer{}
	for kind := 0; kind < numOps; kind++ {
		if _, err := r.run(t, context.Background(), kind, in.warm[kind]); err != nil {
			return nil, fmt.Errorf("warm replica %s: %w", opNames[kind], err)
		}
	}
	return r, nil
}

// run performs one operation through the layers, recording a span around
// every layer call.
func (r *replica) run(t *tracer, c context.Context, kind int, q string) (hits []hit, err error) {
	op, start := t.begin()
	defer t.finish(op, kind, start)
	var rel *relation.Relation
	switch kind {
	case opDocs:
		var plan engine.Node
		t.call(op, kind, "ir.plan", func() { plan, err = r.searcher.ScorePlan(q) })
		if err != nil {
			return nil, err
		}
		t.call(op, kind, "engine.optimize", func() { plan = r.ctx.Optimize(engine.NewLimit(plan, kOf[kind])) })
		t.call(op, kind, "engine.exec", func() { rel, err = r.ctx.Exec(c, plan) })
		if err != nil {
			return nil, err
		}
		var irHits []ir.Hit
		t.call(op, kind, "ir.hits", func() { irHits, err = ir.HitsFromRelation(rel) })
		hits = make([]hit, len(irHits))
		for i, h := range irHits {
			hits[i] = hit{ID: h.DocID, Score: h.Score}
		}
		return hits, err
	case opStrategy, opProduction:
		var plan engine.Node
		t.call(op, kind, "strategy.compile", func() {
			plan, err = r.strategies[kind].Compile(&strategy.Compiler{Query: q, Synonyms: r.syn})
		})
		if err != nil {
			return nil, err
		}
		t.call(op, kind, "engine.optimize", func() {
			plan = r.ctx.Optimize(engine.NewTopN(plan, kOf[kind],
				engine.SortSpec{Col: "", Desc: true}, engine.SortSpec{Col: triple.ColSubject}))
		})
		t.call(op, kind, "engine.exec", func() { rel, err = r.ctx.Exec(c, plan) })
		if err != nil {
			return nil, err
		}
		prob := rel.Prob()
		hits = make([]hit, rel.NumRows())
		for i := range hits {
			hits[i] = hit{ID: rel.Col(0).Vec.Format(i), Score: prob[i]}
		}
		return hits, nil
	default:
		var plan engine.Node
		t.call(op, kind, "engine.bind", func() {
			plan, err = engine.Bind(r.prepared, func(name string) (expr.Lit, bool) {
				return expr.Str(q), name == "auction"
			})
		})
		if err != nil {
			return nil, err
		}
		t.call(op, kind, "engine.exec", func() { rel, err = r.ctx.Exec(c, plan) })
		if err != nil {
			return nil, err
		}
		prob := rel.Prob()
		hits = make([]hit, rel.NumRows())
		for i := range hits {
			hits[i] = hit{ID: rel.Col(0).Vec.Format(i) + "\t" + rel.Col(1).Vec.Format(i), Score: prob[i]}
		}
		return hits, nil
	}
}

// layerMeans aggregates spans into mean milliseconds per operation for
// every (kind, layer), plus the mean traced operation time per kind.
func layerMeans(tracers []*tracer) (layers [numOps]map[string]float64, opMean [numOps]float64, layerOrder [numOps][]string) {
	var ops [numOps]samples
	sums := [numOps]map[string]float64{}
	for k := range sums {
		sums[k] = map[string]float64{}
		layers[k] = map[string]float64{}
	}
	for _, t := range tracers {
		for _, s := range t.ops {
			ops[s.kind] = append(ops[s.kind], float64(s.end.Sub(s.start))/1e6)
		}
		for _, s := range t.spans {
			if _, ok := sums[s.kind][s.layer]; !ok {
				layerOrder[s.kind] = append(layerOrder[s.kind], s.layer)
			}
			sums[s.kind][s.layer] += float64(s.end.Sub(s.start)) / 1e6
		}
	}
	for k := 0; k < numOps; k++ {
		n := float64(len(ops[k]))
		if n == 0 {
			continue
		}
		opMean[k] = ops[k].mean()
		for l, sum := range sums[k] {
			layers[k][l] = sum / n
		}
	}
	return layers, opMean, layerOrder
}

// searchHotTraced runs the traced search-hot workload: an untraced facade
// phase, a serial probe phase checking the replica against the facade and
// counting engine work per operation, and a traced replica phase.
func searchHotTraced(cfg hotConfig, seed int64, dur time.Duration, rep *report) error {
	cpu0 := cpuSeconds()
	in := genHot(cfg, seed)
	ts, docs := facadeTriples(in.graph), facadeDocs(in.docs)
	genCPU := cpuSeconds() - cpu0
	h, err := openHot(in, ts, docs)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	ts, docs = nil, nil
	in.dropInputs()

	// Phase A: the facade, untraced, as in the end-to-end run.
	book := newDigestBook()
	facade := func(int) opFunc { return h.run }
	pa, pf := probeAll(in, book, "facade", facade)
	st0 := h.db.Stats()
	gc0 := readGC()
	resA := closedLoop(in, dur/2, facade)
	gcFrac, gcP99 := gcCost(gc0, readGC())
	st1 := h.db.Stats()
	// The digest book holds the facade's probe results; closing the facade
	// keeps one database in memory at a time.
	h.db.Close()

	// The replica is built from a fresh copy of the same inputs.
	in2 := genHot(cfg, seed)
	rp, err := newReplica(in2)
	if err != nil {
		return fmt.Errorf("replica: %w", err)
	}
	in2.dropInputs()

	// Serial probes: the replica must return the facade's hits, and the
	// engine counters can be attributed to single operations.
	var nodeExecs, cacheHits [numOps]float64
	var probeN [numOps]int
	t := &tracer{}
	for kind := 0; kind < numOps; kind++ {
		for _, q := range in.probes[kind] {
			key := opNames[kind] + " " + q
			n0, c0 := rp.ctx.NodeExecs(), rp.ctx.CacheHits()
			hits, err := rp.run(t, context.Background(), kind, q)
			nodeExecs[kind] += float64(rp.ctx.NodeExecs() - n0)
			cacheHits[kind] += float64(rp.ctx.CacheHits() - c0)
			probeN[kind]++
			pa++
			if err != nil {
				pf++
				book.mismatches = append(book.mismatches, fmt.Sprintf("%s: replica: %v", key, err))
				continue
			}
			if !book.check(key, "replica", digest(hits)) {
				pf++
			}
		}
	}

	// Phase B: the replica, traced, on the same operation sequence.
	tracers := make([]*tracer, len(in.seqs))
	opt0 := rp.ctx.OptimizerStats()
	resB := closedLoop(in, dur/2, func(c int) opFunc {
		tracers[c] = &tracer{}
		return func(ctx context.Context, kind int, q string) ([]hit, error) {
			return rp.run(tracers[c], ctx, kind, q)
		}
	})
	opt1 := rp.ctx.OptimizerStats()

	rep.problem(book.mismatches...)
	rep.problem(resA.errs...)
	rep.problem(resB.errs...)
	rep.count(pa+resA.attempted+resB.attempted, pf+resA.failed+resB.failed)

	// Only the strategy operation runs on serve-ingest too, so only its
	// layers are metrics of BENCHMARK.json; the other operations' layers,
	// and the layers serve-ingest does not measure, are printed.
	opLayer := func(k int, name string, v float64, unit string) {
		if k == opStrategy {
			rep.layer(name, v, unit)
		} else {
			rep.extra(name, v, unit, "")
		}
	}
	layers, opMean, order := layerMeans(tracers)
	rep.extra("ir.plan_ms.docs", layers[opDocs]["ir.plan"], "ms", "")
	for _, k := range []int{opStrategy, opProduction} {
		opLayer(k, "strategy.compile_ms."+opNames[k], layers[k]["strategy.compile"], "ms")
	}
	for _, k := range []int{opDocs, opStrategy, opProduction} {
		opLayer(k, "engine.optimize_ms."+opNames[k], layers[k]["engine.optimize"], "ms")
		share := 0.0
		if opMean[k] > 0 {
			share = layers[k]["engine.optimize"] / opMean[k]
		}
		opLayer(k, "engine.optimize_share."+opNames[k], share, "ratio")
	}
	swap := 0.0
	if g := opt1.GroupsCosted - opt0.GroupsCosted; g > 0 {
		swap = float64(opt1.JoinsSwapped-opt0.JoinsSwapped) / float64(g)
	}
	rep.extra("engine.memo_swap_ratio", swap, "ratio", "")
	rep.extra("engine.bind_ms.prepared", layers[opPrepared]["engine.bind"], "ms", "")
	for k := 0; k < numOps; k++ {
		opLayer(k, "engine.exec_ms."+opNames[k], layers[k]["engine.exec"], "ms")
		opLayer(k, "engine.node_execs."+opNames[k], nodeExecs[k]/float64(max(1, probeN[k])), "count")
		opLayer(k, "engine.cache_hits."+opNames[k], cacheHits[k]/float64(max(1, probeN[k])), "count")
	}
	hits, misses := st1.Cache.Hits-st0.Cache.Hits, st1.Cache.Misses-st0.Cache.Misses
	rep.layer("catalog.hit_rate", ratio(float64(hits), float64(hits+misses)), "ratio")
	rep.layer("catalog.shared_flights", float64(st1.Cache.Shared-st0.Cache.Shared), "count")
	rep.layer("catalog.resident_mb", float64(st1.Cache.Bytes+st1.Cache.AuxBytes)/(1<<20), "MB")
	rep.extra("runtime.gc_cpu_fraction", gcFrac, "ratio", "")
	rep.extra("runtime.gc_pause_p99_ms", gcP99, "ms", "")
	rep.layer("loadgen.lag_p99_ms", summarize(resA.gaps).Tail, "ms")
	rep.layer("loadgen.cpu_s", genCPU, "s")
	for k := 0; k < numOps; k++ {
		opLayer(k, "loadgen.repeat_share."+opNames[k], resA.repeatShare(k), "ratio")
	}
	for k := 0; k < numOps; k++ {
		facadeMean := resA.lat[k].mean()
		var sum float64
		parts := ""
		for _, l := range order[k] {
			sum += layers[k][l]
			parts += fmt.Sprintf(" %s=%.3f", l, layers[k][l])
		}
		rep.extra("irdb.residual_ms."+opNames[k], facadeMean-sum, "ms", "")
		rep.extra("trace.overhead_ms."+opNames[k], opMean[k]-facadeMean, "ms", "")
		rep.note(fmt.Sprintf("%s: facade %.3f ms (n=%d), traced %.3f ms (n=%d), layers%s",
			opNames[k], facadeMean, len(resA.lat[k]), opMean[k], len(resB.lat[k]), parts))
	}
	return nil
}
