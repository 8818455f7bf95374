// Command perfbench is the repository's benchmark: one command that
// runs one workload for a fixed time, checks every answer against a
// reference it computes itself, and prints its metrics as one JSON
// object on the last line of standard output.
//
//	perfbench --workload paper-topk --seed 1 --seconds 10 --trace 0
//
// Workloads: paper-topk (Planner.Run over EXACT3 + APPX2 with a small
// buffer pool), ingest-mixed (frontier appends beside cached reads on a
// memtable planner) and router-http (two shardservers behind a
// rankserver -router, driven over HTTP). With --trace 1 the run drives
// each layer's public entry point on the same seeded inputs, records
// one span per call, and prints the per-layer metrics instead of the
// end-to-end ones. See README.md for what each metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// config is one run's settings. Scale shrinks the data for the
// package's own tests; 1 is the benchmark's size.
type config struct {
	Workload string
	Seed     int64
	Duration time.Duration
	Trace    bool
	BinDir   string // rankserver and shardserver binaries (router-http)
	WorkDir  string // scratch space: snapshots, server data, traces
	Scale    float64
}

// runFunc executes one workload and fills the report.
type runFunc func(cfg config, rep *report) error

var workloads = map[string]runFunc{
	"paper-topk":   runPaperTopK,
	"ingest-mixed": runIngestMixed,
	"router-http":  runRouterHTTP,
}

func main() {
	var (
		cfg     config
		seconds float64
		trace   int
	)
	flag.StringVar(&cfg.Workload, "workload", "", "workload: paper-topk, ingest-mixed or router-http")
	flag.Int64Var(&cfg.Seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&seconds, "seconds", 10, "measured duration of the run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced layer ladder and prints per-layer metrics")
	flag.StringVar(&cfg.BinDir, "bin", filepath.Join(".bench_build", "bin"), "directory holding the rankserver and shardserver binaries")
	flag.StringVar(&cfg.WorkDir, "work", filepath.Join(".bench_build", "work"), "scratch directory for snapshots, server data and traces")
	flag.Parse()
	cfg.Duration = time.Duration(seconds * float64(time.Second))
	cfg.Trace = trace == 1
	cfg.Scale = 1
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one workload, prints the run's stamp and per-operation
// accounting, and returns the result line.
func run(cfg config) (*result, error) {
	fn, ok := workloads[cfg.Workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.Workload, strings.Join(names, ", "))
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("--seconds must be > 0")
	}
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return nil, err
	}
	rep := newReport()
	if err := fn(cfg, rep); err != nil {
		return nil, err
	}
	var want []metricDef
	if cfg.Trace {
		want = perLayerMetrics
	} else {
		want = endToEndMetrics
	}
	res := &result{Correct: rep.wrong == 0, Metrics: make(map[string]metric, len(want))}
	for _, d := range want {
		v, ok := rep.values[d.Name]
		if !ok {
			return nil, fmt.Errorf("workload %s did not report %s", cfg.Workload, d.Name)
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	for _, c := range rep.ops {
		res.Attempted += c.Attempted
		res.Failed += c.Failed
	}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("workload %s attempted no operations", cfg.Workload)
	}
	stamp := map[string]any{
		"workload":   cfg.Workload,
		"seed":       cfg.Seed,
		"seconds":    cfg.Duration.Seconds(),
		"trace":      cfg.Trace,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"commit":     commit(),
		"ops":        rep.ops,
		"wrong":      rep.wrong,
		"info":       rep.info,
	}
	line, err := json.Marshal(stamp)
	if err != nil {
		return nil, err
	}
	fmt.Println(string(line))
	return res, nil
}

// commit names the source revision: git when the working directory is
// a repository's root, else the build's VCS stamp, else "unknown".
func commit() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
