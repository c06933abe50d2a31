package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"irdb/internal/triple"
	"irdb/internal/workload"
)

// Every input the program receives is derived here from the --seed
// argument; subSeed keeps the generators' random streams independent.
func subSeed(seed int64, stream int64) int64 { return seed*1_000_003 + stream }

const (
	streamGraph = iota + 1
	streamDocs
	_ // the synonym dictionary maps the graph's vocabulary, so it uses the graph's seed
	streamDocQueries
	streamLotQueries
	streamInterleave
	streamPrices
	streamBatches
	streamPrepared
)

// auctionVocab is the vocabulary size workload.AuctionGraph draws from.
var auctionVocab = workload.DefaultAuctionConfig().VocabSize

// auctionConfig sizes an auction graph with the paper's shape: ~320 lots
// per auction and two sellers per auction.
func auctionConfig(lots int, seed int64) workload.AuctionConfig {
	cfg := workload.DefaultAuctionConfig()
	cfg.Lots = lots
	cfg.Auctions = max(1, lots/320)
	cfg.Sellers = 2 * cfg.Auctions
	cfg.Seed = subSeed(seed, streamGraph)
	return cfg
}

// queryPool draws n distinct keyword queries of termsPer terms from a
// vocabulary, Zipf-distributed like the text but skipping the five most
// frequent words (the paper's queries are content words, not stop words).
func queryPool(v *workload.Vocabulary, n, termsPer int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(v.Size()-1))
	const minRank = 5
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	terms := make([]string, termsPer)
	for len(out) < n {
		for i := range terms {
			r := int(zipf.Uint64())
			for r < minRank {
				r = int(zipf.Uint64())
			}
			terms[i] = v.Word(r)
		}
		q := strings.Join(terms, " ")
		if !seen[q] {
			seen[q] = true
			out = append(out, q)
		}
	}
	return out
}

// matchIndex bounds from below how many results a keyword query must
// return, from the generated text alone: it maps each word to the groups
// of items whose text holds it verbatim (a document, a lot by its own
// description, or every lot of an auction by the auction's description).
// Under BM25 with a positive idf, every item holding a query word scores
// above zero whatever the tokenizer's folding and stemming make of the
// word, and query expansion only adds words, so a correct search returns
// at least min(k, floor) hits.
type matchIndex struct {
	posting map[string][]int32 // word -> groups holding it
	members [][]int32          // group -> its items
}

func newMatchIndex() *matchIndex { return &matchIndex{posting: map[string][]int32{}} }

// add records that every item of items holds every word of text.
func (m *matchIndex) add(text string, items []int32) {
	g := int32(len(m.members))
	m.members = append(m.members, items)
	seen := map[string]bool{}
	for _, w := range strings.Fields(strings.ToLower(text)) {
		if !seen[w] {
			seen[w] = true
			m.posting[w] = append(m.posting[w], g)
		}
	}
}

// floor returns min(k, the number of items holding a word of q).
func (m *matchIndex) floor(q string, k int) int {
	seen := map[int32]bool{}
	for _, w := range strings.Fields(strings.ToLower(q)) {
		for _, g := range m.posting[w] {
			for _, it := range m.members[g] {
				if !seen[it] {
					seen[it] = true
					if len(seen) >= k {
						return k
					}
				}
			}
		}
	}
	return len(seen)
}

// floors maps each query to its floor at k.
func (m *matchIndex) floors(into map[string]int, k int, qs ...string) {
	for _, q := range qs {
		into[q] = m.floor(q, k)
	}
}

// docsMatchIndex indexes each generated document as its own group.
func docsMatchIndex(docs []workload.Doc) *matchIndex {
	m := newMatchIndex()
	for i, d := range docs {
		m.add(d.Data, []int32{int32(i)})
	}
	return m
}

// lotMatchIndex indexes the lots of an auction graph as the auction-lots
// strategy reaches them: by their own description, and through their
// auction's description. The production strategy ranks these two texts
// too, among others, so the floor holds for it as well.
func lotMatchIndex(graph []triple.Triple) *matchIndex {
	lots := map[string]int32{}
	auctionLots := map[string][]int32{}
	desc := map[string]string{}
	var auctions []string
	for _, t := range graph {
		switch {
		case t.Property == "type" && t.Obj.Str == "lot":
			lots[t.Subject] = int32(len(lots))
		case t.Property == "type" && t.Obj.Str == "auction":
			auctions = append(auctions, t.Subject)
		case t.Property == "description":
			desc[t.Subject] = t.Obj.Str
		}
	}
	m := newMatchIndex()
	for _, t := range graph {
		if id, ok := lots[t.Subject]; ok && t.Property == "hasAuction" {
			auctionLots[t.Obj.Str] = append(auctionLots[t.Obj.Str], id)
		}
	}
	for lot, id := range lots {
		m.add(desc[lot], []int32{id})
	}
	for _, a := range auctions {
		m.add(desc[a], auctionLots[a])
	}
	return m
}

// lotsPerAuction counts the lots generated under each auction — the
// expected row count of the prepared lots-of-an-auction statement.
func lotsPerAuction(graph []triple.Triple) map[string]int {
	out := map[string]int{}
	for _, t := range graph {
		if t.Property == "hasAuction" {
			out[t.Obj.Str]++
		}
	}
	return out
}

func auctionID(i int) string { return fmt.Sprintf("auction%06d", i) }
func lotID(i int) string     { return fmt.Sprintf("lot%06d", i) }

func docID(id int64) string { return strconv.FormatInt(id, 10) }

// interleave returns n operation kinds for one client: blocks holding
// weights[k] operations of kind k, each block in a seeded order, so every
// kind keeps its share of the operations at any cut-off point.
func interleave(weights []int, n int, rng *rand.Rand) []int {
	var block []int
	for k, w := range weights {
		for i := 0; i < w; i++ {
			block = append(block, k)
		}
	}
	out := make([]int, 0, n+len(block))
	for len(out) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out[:n]
}
