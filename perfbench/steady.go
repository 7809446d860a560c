package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"text/tabwriter"
)

// benchmarkFile is the subset of BENCHMARK.json the steadiness check
// reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	RunSeconds float64 `json:"run_seconds"`
}

// steadyRuns is how many runs a set makes per workload, with seeds 1, 2, ...
const steadyRuns = 10

// steadyMain runs two sets of untraced runs of this binary — each set one
// run per seed for every workload of BENCHMARK.json, at its run length —
// and reports, per end-to-end metric and workload, each set's median and
// quartiles and whether the sets agree within the metric's bound. A metric
// whose spread (interquartile range over median) exceeds its bound is
// reported unresolved, not unchanged.
func steadyMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench steady", flag.ContinueOnError)
	outPath := fs.String("out", "", "also write the summary as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	buf, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench steady: %v\n", err)
		return 2
	}
	var bf benchmarkFile
	if err := json.Unmarshal(buf, &bf); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench steady: BENCHMARK.json: %v\n", err)
		return 2
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench steady: %v\n", err)
		return 2
	}

	// values[set][workload][metric] are the runs' readings in seed order.
	values := make([]map[string]map[string][]float64, 2)
	ok := true
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for _, w := range names {
			values[set][w] = map[string][]float64{}
			for i := 0; i < steadyRuns; i++ {
				seed := int64(i + 1)
				m, err := runOnce(self, w, seed, bf.RunSeconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "perfbench steady: set %d %s seed %d: %v\n", set+1, w, seed, err)
					ok = false
					continue
				}
				for k, v := range m {
					values[set][w][k] = append(values[set][w][k], v)
				}
				fmt.Fprintf(os.Stderr, "set %d %s seed %d done\n", set+1, w, seed)
			}
		}
	}

	type setSummary struct {
		Median float64 `json:"median"`
		Q1     float64 `json:"q1"`
		Q3     float64 `json:"q3"`
		Spread float64 `json:"spread"`
	}
	type metricSummary struct {
		Unit    string       `json:"unit"`
		Bound   float64      `json:"bound"`
		Sets    []setSummary `json:"sets"`
		Verdict string       `json:"verdict"`
	}
	summary := map[string]map[string]*metricSummary{}
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbound\tset\tmedian\tq1\tq3\tspread\tverdict")
	for _, w := range names {
		summary[w] = map[string]*metricSummary{}
		for _, m := range bf.EndToEnd {
			ms := &metricSummary{Unit: m.Unit, Bound: m.Bound}
			summary[w][m.Name] = ms
			for set := range values {
				xs := values[set][w][m.Name]
				q1, md, q3 := quartiles(xs)
				spread := (q3 - q1) / md
				ms.Sets = append(ms.Sets, setSummary{md, q1, q3, spread})
				fmt.Fprintf(tw, "%s\t%s\t%g\t%d\t%.6g\t%.6g\t%.6g\t%.3f\t\n", w, m.Name, m.Bound, set+1, md, q1, q3, spread)
			}
			verdict := steadyVerdict(ms.Sets[0].Median, ms.Sets[1].Median,
				[]float64{ms.Sets[0].Spread, ms.Sets[1].Spread}, m.Bound)
			ms.Verdict = verdict
			fmt.Fprintf(tw, "%s\t%s\t\t\t\t\t\t\t%s\n", w, m.Name, verdict)
			if verdict == "unresolved" || verdict == "disagree" {
				ok = false
			}
		}
	}
	tw.Flush()
	if *outPath != "" {
		buf, err := json.MarshalIndent(map[string]any{
			"runs": steadyRuns, "seconds": bf.RunSeconds, "workloads": summary,
		}, "", "  ")
		if err == nil {
			err = os.WriteFile(*outPath, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench steady: %v\n", err)
			return 2
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// steadyVerdict compares two sets of one metric: "unresolved" when either
// set's spread exceeds the bound, else "disagree" when the second median
// differs from the first by more than the bound in either direction, else
// "agree".
func steadyVerdict(med0, med1 float64, spreads []float64, bound float64) string {
	for _, s := range spreads {
		if !(s <= bound) {
			return "unresolved"
		}
	}
	if math.Abs(med1-med0)/med0 > bound {
		return "disagree"
	}
	return "agree"
}

// runOnce runs one untraced benchmark process and returns its metrics.
func runOnce(self, workload string, seed int64, seconds float64) (map[string]float64, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	var last string
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		last = sc.Text()
	}
	var res jsonResult
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("run reported incorrect output")
	}
	m := map[string]float64{}
	for k, v := range res.Metrics {
		m[k] = v.Value
	}
	return m, nil
}

// quartiles returns the first quartile, median and third quartile of xs
// the way Python's statistics.quantiles(xs, n=4) and statistics.median
// compute them (the "exclusive" method).
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) < 2 {
		return math.NaN(), median(xs), math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) + 1
	q := func(i int) float64 {
		j := i * m / 4
		delta := i*m - j*4
		switch {
		case j < 1:
			return s[0]
		case j >= len(s):
			return s[len(s)-1]
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), median(s), q(3)
}
