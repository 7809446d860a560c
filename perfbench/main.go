// Command perfbench is the repository's benchmark. One run executes one
// seeded workload through the public API, checks that its outputs are
// correct, and prints its metrics; the last line of standard output is a
// JSON object with the keys correct, attempted, failed and metrics.
//
//	perfbench --workload converge-2k --seed 1 --seconds 15 --trace 0
//	perfbench steady
//
// With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
// with --trace 1 they are its per-layer metrics, and the run also writes
// its spans to .bench_build/trace/. See README.md for what each workload
// and metric means. The process exits 1 when an output check fails.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"time"

	"lifeguard/internal/scalebench"
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	// spanDir receives the traced run's spans.
	spanDir string
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run prints, on every workload.
// "op" is one turn of the workload's closed loop: a poison cycle on
// converge-2k, an incident window on repair-mt, a traffic epoch on
// traffic-1m.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"converge_s", "s"},
	{"op_ms_p50", "ms"},
	{"op_ms_tail", "ms"},
	{"sim_speedup", "vs/s"},
}

// result is what a workload hands back to the driver.
type result struct {
	attempted, failed int
	// errs lists failed output checks; any entry makes the run incorrect.
	errs []string
	// e2e holds the end-to-end metrics by name.
	e2e map[string]float64
	// named are the workload's own headline numbers, printed on the
	// detail line under the names the workload documentation uses.
	named []named
	// tr carries the traced run's spans and per-layer samples.
	tr *tracer
}

type named struct {
	name  string
	value float64
	unit  string
	note  string
}

func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

func (r *result) report(name string, value float64, unit, note string) {
	r.named = append(r.named, named{name, value, unit, note})
}

// workload is one benchmark input set.
type workload struct {
	name string
	run  func(cfg runConfig, tr *tracer) (*result, error)
}

var workloads = []workload{
	{"converge-2k", func(cfg runConfig, tr *tracer) (*result, error) { return runConverge(cfg, tr, fullConverge) }},
	{"repair-mt", func(cfg runConfig, tr *tracer) (*result, error) { return runRepair(cfg, tr, fullRepair) }},
	{"traffic-1m", func(cfg runConfig, tr *tracer) (*result, error) { return runTraffic(cfg, tr, fullTraffic) }},
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steadyMain(os.Args[2:], os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

func benchMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: converge-2k, repair-mt or traffic-1m")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 15, "how long the measured loop runs, in wall seconds")
	trace := fs.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, spanDir: filepath.Join(".bench_build", "trace")}
	res, err := w.run(cfg, newTracer(cfg.trace))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := emit(stdout, w.name, cfg, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if len(res.errs) > 0 {
		return 1
	}
	return 0
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// emit prints the detail lines and, last, the result object.
func emit(w io.Writer, name string, cfg runConfig, res *result) error {
	for _, e := range res.errs {
		fmt.Fprintf(w, "check failed: %s\n", e)
	}
	for _, n := range res.named {
		line := fmt.Sprintf("%s seed=%d: %s = %s %s", name, cfg.seed, n.name, strconv.FormatFloat(n.value, 'g', 6, 64), n.unit)
		if n.note != "" {
			line += " (" + n.note + ")"
		}
		fmt.Fprintln(w, line)
	}
	out := jsonResult{
		Correct:   len(res.errs) == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]jsonMetric{},
	}
	if cfg.trace {
		layers, err := perLayer(res.tr)
		if err != nil {
			return err
		}
		path := filepath.Join(cfg.spanDir, fmt.Sprintf("%s-seed%d.jsonl", name, cfg.seed))
		if err := res.tr.writeSpans(path); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(w, "%s seed=%d: %d spans written to %s\n", name, cfg.seed, len(res.tr.spans), path)
		for _, d := range layerDefs {
			out.Metrics[d.name] = jsonMetric{layers[d.name], d.unit}
		}
	} else {
		for _, d := range endToEnd {
			v, ok := res.e2e[d.name]
			if !ok {
				return fmt.Errorf("workload did not measure %s", d.name)
			}
			out.Metrics[d.name] = jsonMetric{v, d.unit}
		}
	}
	buf, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(buf))
	return err
}

// plan describes one workload's run to runPlan.
type plan struct {
	workload string
	// setups is how many times the workload is set up; each set-up is
	// followed by an equal share of the loop's time.
	setups int
	// detOps operations always run after the first set-up, so figures
	// over them repeat exactly for a seed; minOps always run in all, and
	// fix the tail percentile.
	detOps, minOps int
	// cycle, when above 1, makes a segment end only after a whole number
	// of cycles of that many operations since its set-up, so that no
	// cycle is cut short unchecked.
	cycle int
	// setup drops the previous state and builds the workload afresh. It
	// returns the set-up's wall time and that of its cold convergence.
	setup func(rep int) (setup, converge time.Duration, err error)
	// now reads the current state's virtual clock.
	now func() time.Duration
	// op runs operation i, the j-th since the last set-up, and returns
	// the wall time of the part it measures, leaving its own output
	// checks out.
	op func(i, j int) (time.Duration, error)
}

// runStats are the timings of a run.
type runStats struct {
	setupS, convergeS []float64
	// opMS holds each measured operation's wall time; refMS those of the
	// traced run's untraced segments.
	opMS, refMS []float64
	ops         int
	wall        time.Duration
	virtual     time.Duration
}

// runPlan alternates set-ups with segments of the loop, so that set-up
// time and convergence are sampled across the whole run rather than in
// one burst a noisy neighbour can cover. The state is rebuilt identically
// each time, so the loop carries on where it left off. A traced run keeps
// its first segments (the first half, rounded down) untraced, as the
// reference trace.overhead is taken against, and profiles the rest.
func runPlan(cfg runConfig, tr *tracer, p plan) (runStats, error) {
	var rs runStats
	seg := time.Duration(cfg.seconds * float64(time.Second) / float64(p.setups))
	traced := tr.enabled()
	var mem memDelta
	i := 0
	for rep := 0; rep < p.setups; rep++ {
		tr.on = traced
		tr.group = fmt.Sprintf("setup-%d", rep)
		sp := tr.begin("setup")
		sd, cd, err := p.setup(rep)
		tr.end(sp)
		if err != nil {
			return rs, err
		}
		rs.setupS = append(rs.setupS, sd.Seconds())
		rs.convergeS = append(rs.convergeS, cd.Seconds())

		ref := traced && rep < p.setups/2
		tr.on = traced && !ref
		timed := &rs.opMS
		if ref {
			timed = &rs.refMS
		}
		deadline := time.Now().Add(seg)
		more := func() bool {
			return time.Now().Before(deadline) || (rep == 0 && i < p.detOps) || (rep == p.setups-1 && i < p.minOps)
		}
		var opErr error
		segment := func() {
			for j := 0; opErr == nil && (j%max(p.cycle, 1) != 0 || more()); j++ {
				tr.group = fmt.Sprintf("op-%d", i)
				sp := tr.begin("op")
				v0 := p.now()
				t0 := time.Now()
				var d time.Duration
				d, opErr = p.op(i, j)
				rs.wall += time.Since(t0)
				rs.virtual += p.now() - v0
				tr.end(sp)
				*timed = append(*timed, float64(d)/float64(time.Millisecond))
				i++
			}
		}
		if tr.on {
			if rep == p.setups/2 {
				if err := tr.startProfile(); err != nil {
					return rs, err
				}
			}
			m0 := readMem()
			pprof.Do(context.Background(), pprof.Labels("workload", p.workload, "phase", "loop"),
				func(context.Context) { segment() })
			mem.add(memSince(m0))
		} else {
			segment()
		}
		if opErr != nil {
			return rs, opErr
		}
	}
	rs.ops = i
	if traced {
		pprof.StopCPUProfile()
		memLayers(tr, mem)
	}
	return rs, nil
}

// runMetrics fills the metrics every workload shares from a run's
// timings. Set-up time and convergence are medians over the set-ups. The
// tail percentile is fixed by the minimum operation count, not by how
// many operations a run managed, so that it means the same in every run.
func (r *result) runMetrics(rs runStats, opName string, minOps int) error {
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.e2e["setup_s"] = median(rs.setupS)
	r.e2e["converge_s"] = median(rs.convergeS)
	r.e2e["peak_rss_mb"] = rss
	pct := tailPercentile(minOps)
	r.e2e["op_ms_p50"] = median(rs.opMS)
	r.e2e["op_ms_tail"] = quantile(rs.opMS, pct/100)
	r.e2e["sim_speedup"] = rs.virtual.Seconds() / rs.wall.Seconds()
	r.report("setup_s", r.e2e["setup_s"], "s", fmt.Sprintf("median of %d set-ups", len(rs.setupS)))
	r.report("converge_s", r.e2e["converge_s"], "s", fmt.Sprintf("median of %d cold convergences", len(rs.convergeS)))
	r.report("peak_rss_mb", rss, "MB", "")
	r.report(opName+"_ms_p50", r.e2e["op_ms_p50"], "ms", fmt.Sprintf("n=%d", len(rs.opMS)))
	r.report(opName+"_ms_tail", r.e2e["op_ms_tail"], "ms", fmt.Sprintf("p%g, n=%d", pct, len(rs.opMS)))
	r.report("sim_speedup", r.e2e["sim_speedup"], "vs/s", "")
	if r.tr.enabled() && len(rs.refMS) > 0 && len(rs.opMS) > 0 {
		r.tr.set("trace.overhead", median(rs.opMS)/median(rs.refMS))
	}
	return nil
}

// dropState releases a workload's previous state before the next
// set-up, so the two never share the heap.
func dropState() { runtime.GC() }

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	if mb := scalebench.VmHWMMB(); mb > 0 {
		return mb, nil
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}

func newResult(tr *tracer) *result {
	return &result{e2e: map[string]float64{}, tr: tr}
}
