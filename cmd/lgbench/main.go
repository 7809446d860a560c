// Command lgbench is the benchmark-regression harness: it runs the
// engine-convergence and dataplane-forwarding benchmarks (the two hot paths
// every experiment pays for) with -benchmem and records the headline
// metrics — ns/op, B/op, allocs/op, and packets/sec for the per-packet
// benchmarks — as JSON.
//
// The output file doubles as the regression ledger: the first run seeds a
// "baseline" section, and later runs refresh only "current" (plus a "delta"
// section comparing the two), so the committed file always shows the perf
// trajectory since the baseline was taken. Re-seed deliberately by deleting
// the file.
//
// Besides the micro-benchmarks, lgbench times the experiment suite itself
// through the internal/runner pool — once sequentially, once at full
// parallelism — and records the wall-clock speedup (the "suite" section).
// Disable with -suite=false for the fastest smoke run.
//
// It also times the sequential suite twice — uninstrumented (obs.Disabled)
// and with a live per-trial metrics registry — and records the overhead
// ratio (the "obs_overhead" section); instrumentation is contractually
// cheap, and this keeps it honest.
//
//	go run ./cmd/lgbench -benchtime 2s -out BENCH_pr4.json   # make bench
//	go run ./cmd/lgbench -benchtime 1x -out /tmp/smoke.json  # CI smoke
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"lifeguard/internal/experiments"
	"lifeguard/internal/obs"
	"lifeguard/internal/runner"
)

// benchPattern selects the harnessed benchmarks: control-plane convergence,
// the LPM lookup primitive, and end-to-end packet forwarding.
const benchPattern = "BenchmarkConvergence|BenchmarkLookupLPM|BenchmarkDataplane"

var benchPackages = []string{"./internal/bgp/", "./internal/dataplane/"}

// Metrics is one benchmark's headline numbers.
type Metrics struct {
	Iterations    int     `json:"iterations"`
	NsPerOp       float64 `json:"ns_per_op"`
	BytesPerOp    float64 `json:"bytes_per_op"`
	AllocsPerOp   float64 `json:"allocs_per_op"`
	PacketsPerSec float64 `json:"packets_per_sec,omitempty"`
}

// Delta compares current against baseline for one benchmark.
type Delta struct {
	// Speedup is baseline ns/op divided by current ns/op (>1 is faster).
	Speedup float64 `json:"speedup"`
	// AllocRatio is current allocs/op divided by baseline allocs/op
	// (<1 is fewer allocations).
	AllocRatio float64 `json:"alloc_ratio"`
}

// SuiteTiming records one wall-clock measurement of the experiment suite
// on the runner pool. Speedup is sequential over parallel wall-clock; it
// tracks the host's core count (GOMAXPROCS 1 pins it to ~1.0).
type SuiteTiming struct {
	GoMaxProcs   int      `json:"gomaxprocs"`
	Workers      int      `json:"workers"`
	Experiments  []string `json:"experiments"`
	Seeds        int      `json:"seeds"`
	Trials       int      `json:"trials"`
	SequentialMS float64  `json:"sequential_ms"`
	ParallelMS   float64  `json:"parallel_ms"`
	Speedup      float64  `json:"speedup"`
}

// ObsOverhead records what metrics instrumentation costs: the sequential
// suite timed once uninstrumented (obs.Disabled — every metric site is one
// nil-check branch) and once with a live per-trial registry merged into a
// process-wide one. Overhead is instrumented over uninstrumented
// wall-clock; 1.0 means free.
type ObsOverhead struct {
	Experiments      []string `json:"experiments"`
	Seeds            int      `json:"seeds"`
	UninstrumentedMS float64  `json:"uninstrumented_ms"`
	InstrumentedMS   float64  `json:"instrumented_ms"`
	Overhead         float64  `json:"overhead"`
	// Series counts the distinct metric series the instrumented run produced.
	Series int `json:"series"`
}

// Report is the file schema.
type Report struct {
	Schema    string             `json:"schema"`
	GoVersion string             `json:"go_version"`
	Benchtime string             `json:"benchtime"`
	Note      string             `json:"note"`
	Baseline  map[string]Metrics `json:"baseline"`
	Current   map[string]Metrics `json:"current"`
	Delta     map[string]Delta   `json:"delta,omitempty"`
	Suite     *SuiteTiming       `json:"suite,omitempty"`
	Obs       *ObsOverhead       `json:"obs_overhead,omitempty"`
}

func main() {
	benchtime := flag.String("benchtime", "2s", "go test -benchtime value (e.g. 2s or 1x for a smoke run)")
	out := flag.String("out", "BENCH_pr4.json", "output JSON file; an existing file's baseline section is preserved")
	suite := flag.Bool("suite", true, "also time the experiment suite sequentially vs in parallel")
	seeds := flag.Int("seeds", 2, "seeds per experiment for the suite timing")
	scale := flag.Bool("scale", false, "run the Internet-scale bench family (200/2k/10k ASes) instead of the micro-benchmarks")
	scaleSmoke := flag.Bool("scale-smoke", false, "CI smoke: one 2k-AS case under a wall-clock budget plus a worker-count determinism diff")
	scaleOut := flag.String("scale-out", "BENCH_pr7.json", "output file for -scale")
	scaleCase := flag.String("scale-case", "", "internal: run one scale case from a JSON config and print the result (self-exec)")
	trafficFlag := flag.Bool("traffic", false, "run the traffic-at-scale bench family (grouped vs single-packet throughput + user-seconds-lost experiment)")
	trafficFlows := flag.Int("traffic-flows", 1_000_000, "modelled flow population for -traffic")
	trafficEpochs := flag.Int("traffic-epochs", 3, "epochs per forwarding mode for -traffic")
	trafficSeed := flag.Int64("traffic-seed", 1, "experiment seed for -traffic")
	trafficOut := flag.String("traffic-out", "BENCH_pr10.json", "output file for -traffic")
	flag.Parse()

	if *trafficFlag {
		if err := runTrafficFamily(*trafficFlows, *trafficEpochs, *trafficSeed, *trafficOut); err != nil {
			fmt.Fprintln(os.Stderr, "lgbench:", err)
			os.Exit(1)
		}
		return
	}
	if *scaleCase != "" {
		runScaleCase(*scaleCase)
		return
	}
	if *scaleSmoke {
		if err := runScaleSmoke(); err != nil {
			fmt.Fprintln(os.Stderr, "lgbench:", err)
			os.Exit(1)
		}
		return
	}
	if *scale {
		if err := runScaleFamily(*scaleOut); err != nil {
			fmt.Fprintln(os.Stderr, "lgbench:", err)
			os.Exit(1)
		}
		return
	}

	current, err := runBenchmarks(*benchtime)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lgbench:", err)
		os.Exit(1)
	}
	if len(current) == 0 {
		fmt.Fprintln(os.Stderr, "lgbench: no benchmark results parsed")
		os.Exit(1)
	}

	rep := Report{
		Schema:    "lifeguard-bench/v1",
		GoVersion: runtime.Version(),
		Benchtime: *benchtime,
		Note: "baseline is seeded on the first run against this file and " +
			"kept on later runs; delete the file to re-seed",
		Baseline: loadBaseline(*out),
		Current:  current,
	}
	if rep.Baseline == nil {
		rep.Baseline = current
	}
	rep.Delta = deltas(rep.Baseline, current)
	if *suite {
		st, err := measureSuite(*seeds)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lgbench:", err)
			os.Exit(1)
		}
		rep.Suite = st
		oo, err := measureObsOverhead(*seeds)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lgbench:", err)
			os.Exit(1)
		}
		rep.Obs = oo
	}

	buf, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "lgbench:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "lgbench:", err)
		os.Exit(1)
	}
	fmt.Printf("lgbench: wrote %d benchmarks to %s\n", len(current), *out)
}

// suiteIDs are the multi-trial experiments the suite timing exercises —
// the ones whose wall clock actually shards across runner workers.
var suiteIDs = []string{"efficacy", "fig6", "loss", "abl-threshold", "abl-dampening"}

// measureSuite times the experiment suite once sequentially and once at
// full parallelism. Both runs produce identical reports (that is the
// runner's contract, asserted by the committed tests); only the wall
// clock differs, and only when the host has cores to spare.
func measureSuite(seeds int) (*SuiteTiming, error) {
	exps, err := suiteExperiments()
	if err != nil {
		return nil, err
	}
	const baseSeed = 1
	ctx := context.Background()

	timeRun := func(parallelism int) (time.Duration, error) {
		start := time.Now()
		_, err := experiments.RunSuite(ctx, exps, baseSeed, seeds, runner.Config{Parallelism: parallelism}, nil)
		return time.Since(start), err
	}

	seq, err := timeRun(1)
	if err != nil {
		return nil, fmt.Errorf("suite timing (sequential): %w", err)
	}
	cfg := runner.Config{}
	par, err := timeRun(cfg.Workers())
	if err != nil {
		return nil, fmt.Errorf("suite timing (parallel): %w", err)
	}

	st := &SuiteTiming{
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		Workers:      cfg.Workers(),
		Experiments:  suiteIDs,
		Seeds:        seeds,
		Trials:       experiments.SuiteTrialCount(exps, baseSeed, seeds),
		SequentialMS: float64(seq.Milliseconds()),
		ParallelMS:   float64(par.Milliseconds()),
	}
	if par > 0 {
		st.Speedup = float64(seq) / float64(par)
	}
	fmt.Printf("lgbench: suite %d trials: sequential %v, parallel %v on %d workers (%.2fx)\n",
		st.Trials, seq.Round(time.Millisecond), par.Round(time.Millisecond), st.Workers, st.Speedup)
	return st, nil
}

// suiteExperiments resolves suiteIDs against the registry.
func suiteExperiments() ([]experiments.Experiment, error) {
	var exps []experiments.Experiment
	for _, id := range suiteIDs {
		e, ok := experiments.ByID(id)
		if !ok {
			return nil, fmt.Errorf("suite timing: unknown experiment %q", id)
		}
		exps = append(exps, e)
	}
	return exps, nil
}

// measureObsOverhead times the sequential suite with instrumentation off
// (the nil registry) and on (a live registry fed by per-trial registries).
// Sequential runs keep the comparison free of scheduling noise.
func measureObsOverhead(seeds int) (*ObsOverhead, error) {
	exps, err := suiteExperiments()
	if err != nil {
		return nil, err
	}
	ctx := context.Background()

	timeRun := func(reg *obs.Registry) (time.Duration, error) {
		start := time.Now()
		_, err := experiments.RunSuite(ctx, exps, 1, seeds, runner.Config{Parallelism: 1}, reg)
		return time.Since(start), err
	}

	off, err := timeRun(obs.Disabled)
	if err != nil {
		return nil, fmt.Errorf("obs overhead (uninstrumented): %w", err)
	}
	reg := obs.New()
	on, err := timeRun(reg)
	if err != nil {
		return nil, fmt.Errorf("obs overhead (instrumented): %w", err)
	}

	oo := &ObsOverhead{
		Experiments:      suiteIDs,
		Seeds:            seeds,
		UninstrumentedMS: float64(off.Milliseconds()),
		InstrumentedMS:   float64(on.Milliseconds()),
		Series:           len(reg.Snapshot().Metrics),
	}
	if off > 0 {
		oo.Overhead = float64(on) / float64(off)
	}
	fmt.Printf("lgbench: obs overhead: uninstrumented %v, instrumented %v (%.3fx, %d series)\n",
		off.Round(time.Millisecond), on.Round(time.Millisecond), oo.Overhead, oo.Series)
	return oo, nil
}

// runBenchmarks shells out to go test and parses the -benchmem result lines.
func runBenchmarks(benchtime string) (map[string]Metrics, error) {
	args := []string{"test", "-run", "^$", "-bench", benchPattern,
		"-benchmem", "-benchtime", benchtime}
	args = append(args, benchPackages...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	os.Stdout.Write(outBytes)
	if err != nil {
		return nil, fmt.Errorf("go test -bench: %w", err)
	}
	results := make(map[string]Metrics)
	for _, line := range strings.Split(string(outBytes), "\n") {
		name, m, ok := parseBenchLine(line)
		if ok {
			results[name] = m
		}
	}
	return results, nil
}

// parseBenchLine decodes one "BenchmarkX-8  N  ns/op  B/op  allocs/op"
// line; ok=false for anything else (headers, PASS, package summaries).
func parseBenchLine(line string) (string, Metrics, bool) {
	f := strings.Fields(line)
	if len(f) < 8 || !strings.HasPrefix(f[0], "Benchmark") {
		return "", Metrics{}, false
	}
	if f[3] != "ns/op" || f[5] != "B/op" || f[7] != "allocs/op" {
		return "", Metrics{}, false
	}
	iters, err1 := strconv.Atoi(f[1])
	ns, err2 := strconv.ParseFloat(f[2], 64)
	bytes, err3 := strconv.ParseFloat(f[4], 64)
	allocs, err4 := strconv.ParseFloat(f[6], 64)
	if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
		return "", Metrics{}, false
	}
	// Strip the -GOMAXPROCS suffix so names are stable across machines.
	name := f[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	m := Metrics{Iterations: iters, NsPerOp: ns, BytesPerOp: bytes, AllocsPerOp: allocs}
	// The dataplane benchmarks forward exactly one packet per op, so the
	// inverse rate is the headline packets/sec figure.
	if strings.HasPrefix(name, "BenchmarkDataplane") && ns > 0 {
		m.PacketsPerSec = 1e9 / ns
	}
	return name, m, true
}

// loadBaseline returns the baseline section of an existing report, or nil.
func loadBaseline(path string) map[string]Metrics {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var prev Report
	if err := json.Unmarshal(buf, &prev); err != nil || len(prev.Baseline) == 0 {
		fmt.Fprintf(os.Stderr, "lgbench: %s exists but has no usable baseline; re-seeding\n", path)
		return nil
	}
	return prev.Baseline
}

// deltas compares benchmarks present in both runs.
func deltas(baseline, current map[string]Metrics) map[string]Delta {
	d := make(map[string]Delta)
	for name, base := range baseline {
		now, ok := current[name]
		if !ok || now.NsPerOp == 0 {
			continue
		}
		dl := Delta{Speedup: base.NsPerOp / now.NsPerOp}
		if base.AllocsPerOp > 0 {
			dl.AllocRatio = now.AllocsPerOp / base.AllocsPerOp
		}
		d[name] = dl
	}
	return d
}
