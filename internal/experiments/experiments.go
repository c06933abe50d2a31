// Package experiments implements the reproduction experiments E1–E9, one
// per performance claim or figure of the paper. cmd/benchrun drives them;
// integration tests run them in Quick mode to keep the pipelines honest.
//
// The experiment index:
//
//	E1  keyword search latency (section 2.1)
//	E2  on-demand vertical partitioning (section 2.2)
//	E3  score propagation overhead (section 2.3)
//	E4  auction strategy end to end (section 3)
//	E5  on-demand index construction and reuse (sections 2.1, 3)
//	E6  relational vs specialized retrieval (references [5],[10])
//	E7  production strategy ablation (section 3)
//	E8  concurrent execution and single-flight materialization
//	E9  dictionary-encoded string columns
package experiments

import (
	"fmt"
	"sort"

	"irdb/internal/bench"
	"irdb/internal/catalog"
	"irdb/internal/engine"
	"irdb/internal/workload"
)

// Config controls experiment sizing.
type Config struct {
	// Scale multiplies the default dataset sizes (1.0 = laptop defaults).
	Scale float64
	// Quick shrinks everything to smoke-test size; used by tests.
	Quick bool
	// Seed for all generators.
	Seed int64
	// Parallelism is passed to every experiment's engine context
	// (0 = GOMAXPROCS, 1 = serial). E8 sweeps it explicitly.
	Parallelism int
}

// DefaultConfig returns the laptop-scale configuration.
func DefaultConfig() Config { return Config{Scale: 1.0, Seed: 42} }

func (c Config) size(base int) int {
	if c.Quick {
		base /= 20
		if base < 8 {
			base = 8
		}
		return base
	}
	n := int(float64(base) * c.Scale)
	if n < 1 {
		n = 1
	}
	return n
}

func (c Config) reps(base int) int {
	if c.Quick {
		if base > 3 {
			return 3
		}
	}
	return base
}

// Result is one experiment's report.
type Result struct {
	ID         string
	Name       string
	PaperClaim string
	Finding    string
	Tables     []*bench.Table
}

// String renders the result as text.
func (r *Result) String() string {
	s := fmt.Sprintf("--- %s: %s ---\npaper: %s\n\n", r.ID, r.Name, r.PaperClaim)
	for _, t := range r.Tables {
		s += t.String() + "\n"
	}
	if r.Finding != "" {
		s += "finding: " + r.Finding + "\n"
	}
	return s
}

// Markdown renders the result as GitHub-flavoured markdown (benchrun -md).
func (r *Result) Markdown() string {
	s := fmt.Sprintf("## %s — %s\n\n**Paper claim.** %s\n\n", r.ID, r.Name, r.PaperClaim)
	for _, t := range r.Tables {
		s += t.Markdown() + "\n"
	}
	if r.Finding != "" {
		s += "**Measured.** " + r.Finding + "\n"
	}
	return s
}

// runner is the registry of experiments.
type runner func(Config) (*Result, error)

var registry = map[string]runner{
	"E1": E1,
	"E2": E2,
	"E3": E3,
	"E4": E4,
	"E5": E5,
	"E6": E6,
	"E7": E7,
	"E8": E8,
	"E9": E9,
}

// IDs returns the registered experiment IDs, sorted.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by ID.
func Run(id string, cfg Config) (*Result, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	return r(cfg)
}

// newDocsCtx registers docs as a base table and returns a context plus the
// scan plan.
func newDocsCtx(cfg Config, docs []workload.Doc) (*engine.Ctx, engine.Node) {
	cat := catalog.New(0)
	cat.Put("docs", workload.DocsRelation(docs))
	ctx := engine.NewCtx(cat)
	ctx.Parallelism = cfg.Parallelism
	return ctx, engine.NewScan("docs")
}
