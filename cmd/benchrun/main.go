// Command benchrun executes the reproduction experiments E1–E9 (see the
// internal/experiments package doc for the experiment index) and prints
// their report tables, optionally as markdown.
//
// Usage:
//
//	benchrun -e all            # run everything at default scale
//	benchrun -e E1,E4 -scale 2 # selected experiments, double size
//	benchrun -e E8 -par 4      # concurrency sweep with a 4-worker engine pool
//	benchrun -e all -md        # emit markdown
//	benchrun -e all -quick -json BENCH_snapshot.json  # machine-readable snapshot
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"irdb/internal/experiments"
)

// jsonReport is the machine-readable snapshot format committed as
// BENCH_*.json, so later PRs have a perf trajectory to diff against.
type jsonReport struct {
	Generated   string                `json:"generated"`
	GoVersion   string                `json:"go_version"`
	NumCPU      int                   `json:"num_cpu"`
	Scale       float64               `json:"scale"`
	Quick       bool                  `json:"quick"`
	Seed        int64                 `json:"seed"`
	Parallelism int                   `json:"parallelism"`
	WallTime    string                `json:"wall_time"`
	Results     []*experiments.Result `json:"results"`
}

func main() {
	var (
		list  = flag.String("e", "all", "comma-separated experiment IDs (E1..E9) or 'all'")
		scale = flag.Float64("scale", 1.0, "dataset scale factor")
		quick = flag.Bool("quick", false, "smoke-test sizes")
		md    = flag.Bool("md", false, "emit markdown instead of text tables")
		seed  = flag.Int64("seed", 42, "workload generator seed")
		par   = flag.Int("par", 0, "engine worker pool size (0 = GOMAXPROCS, 1 = serial)")
		jout  = flag.String("json", "", "also write results as JSON to this file")
	)
	flag.Parse()

	cfg := experiments.DefaultConfig()
	cfg.Scale = *scale
	cfg.Quick = *quick
	cfg.Seed = *seed
	cfg.Parallelism = *par

	var ids []string
	if *list == "all" {
		ids = experiments.IDs()
	} else {
		for _, id := range strings.Split(*list, ",") {
			ids = append(ids, strings.TrimSpace(strings.ToUpper(id)))
		}
	}

	fmt.Printf("# IR-on-DB reproduction experiments (scale=%.2g, quick=%v, %s, %d CPU)\n\n",
		cfg.Scale, cfg.Quick, runtime.Version(), runtime.NumCPU())
	start := time.Now()
	results := make([]*experiments.Result, 0, len(ids))
	for _, id := range ids {
		res, err := experiments.Run(id, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrun: %s: %v\n", id, err)
			os.Exit(1)
		}
		results = append(results, res)
		if *md {
			fmt.Println(res.Markdown())
		} else {
			fmt.Println(res.String())
		}
	}
	wall := time.Since(start).Round(time.Millisecond)
	fmt.Printf("total wall time: %s\n", wall)
	if *jout != "" {
		report := jsonReport{
			Generated:   time.Now().UTC().Format(time.RFC3339),
			GoVersion:   runtime.Version(),
			NumCPU:      runtime.NumCPU(),
			Scale:       cfg.Scale,
			Quick:       cfg.Quick,
			Seed:        cfg.Seed,
			Parallelism: cfg.Parallelism,
			WallTime:    wall.String(),
			Results:     results,
		}
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrun: marshal json: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jout, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchrun: write %s: %v\n", *jout, err)
			os.Exit(1)
		}
		fmt.Printf("json snapshot written to %s\n", *jout)
	}
}
