package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"lifeguard"
	"lifeguard/internal/topo"
)

// Tiny sizes run every workload through the same code in about a second.
var (
	tinyConverge = convergeSize{ases: 200, prefixes: 200, topoSeed: 7, digest: "d80bb7e9e7338366",
		setups: 2, minCycles: 20, detCycles: 5}
	tinyRepair = repairSize{topoSeed: 1, transits: 15, stubs: 40, tenants: 2, setups: 2,
		minIncidents: 5, detIncidents: 3, hold: 35 * time.Minute, window: 30 * time.Minute}
	tinyTraffic = trafficSize{topoSeed: 1, transits: 15, stubs: 40, flows: 5000, vantages: 4, dests: 4,
		churn: 0.01, epoch: 30 * time.Second, setups: 2,
		cycleEpochs: 40, strikeAt: 2, healAt: 26, minEpochs: 40, detCycles: 1}
)

var tinyWorkloads = map[string]func(runConfig, *tracer) (*result, error){
	"converge-2k": func(c runConfig, tr *tracer) (*result, error) { return runConverge(c, tr, tinyConverge) },
	"repair-mt":   func(c runConfig, tr *tracer) (*result, error) { return runRepair(c, tr, tinyRepair) },
	"traffic-1m":  func(c runConfig, tr *tracer) (*result, error) { return runTraffic(c, tr, tinyTraffic) },
}

func loadBenchmark(t *testing.T) map[string]any {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf map[string]any
	if err := json.Unmarshal(buf, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// declared returns BENCHMARK.json's metrics of one kind as name -> unit.
func declared(t *testing.T, kind string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, m := range loadBenchmark(t)[kind].([]any) {
		mm := m.(map[string]any)
		out[mm["name"].(string)] = mm["unit"].(string)
	}
	return out
}

// runTiny runs one tiny workload and returns the parsed result line.
func runTiny(t *testing.T, name string, trace bool) jsonResult {
	t.Helper()
	cfg := runConfig{seed: 3, seconds: 0.2, trace: trace, spanDir: t.TempDir()}
	res, err := tinyWorkloads[name](cfg, newTracer(trace))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(res.errs) > 0 {
		t.Fatalf("%s: output checks failed: %v", name, res.errs)
	}
	var out bytes.Buffer
	if err := emit(&out, name, cfg, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var jr jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &jr); err != nil {
		t.Fatalf("%s: last line is not the result object: %v", name, err)
	}
	if !jr.Correct || jr.Attempted < 1 || jr.Failed != 0 {
		t.Fatalf("%s: result %+v", name, jr)
	}
	return jr
}

func TestEveryWorkloadPrintsEveryEndToEndMetric(t *testing.T) {
	want := declared(t, "end_to_end")
	if len(want) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, the benchmark measures %d", len(want), len(endToEnd))
	}
	for name := range tinyWorkloads {
		jr := runTiny(t, name, false)
		if len(jr.Metrics) != len(want) {
			t.Errorf("%s: printed %d metrics, want %d", name, len(jr.Metrics), len(want))
		}
		for m, unit := range want {
			got, ok := jr.Metrics[m]
			if !ok {
				t.Errorf("%s: %s not printed", name, m)
				continue
			}
			if got.Unit != unit {
				t.Errorf("%s: %s unit %q, want %q", name, m, got.Unit, unit)
			}
			if !(got.Value > 0) || math.IsInf(got.Value, 0) {
				t.Errorf("%s: %s = %v, want a positive reading", name, m, got.Value)
			}
		}
	}
}

func TestTracedRunPrintsEveryPerLayerMetric(t *testing.T) {
	want := declared(t, "per_layer")
	if len(want) != len(layerDefs) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the benchmark measures %d", len(want), len(layerDefs))
	}
	for name := range tinyWorkloads {
		jr := runTiny(t, name, true)
		if len(jr.Metrics) != len(want) {
			t.Errorf("%s: printed %d metrics, want %d", name, len(jr.Metrics), len(want))
		}
		for m, unit := range want {
			if got, ok := jr.Metrics[m]; !ok || got.Unit != unit {
				t.Errorf("%s: %s printed as %+v, want unit %q", name, m, got, unit)
			}
		}
		if jr.Metrics["trace.overhead"].Value <= 0 || jr.Metrics["span.op.self_s"].Value <= 0 {
			t.Errorf("%s: traced run recorded no spans or no overhead", name)
		}
	}
}

func TestDeterministicFiguresRepeatForASeed(t *testing.T) {
	for name, key := range map[string]string{
		"converge-2k": "bgp.updates_sent",
		"repair-mt":   "lifeguard.repair_virtual_s_p50",
		"traffic-1m":  "traffic.user_seconds_lost",
	} {
		a := runTiny(t, name, true).Metrics[key].Value
		b := runTiny(t, name, true).Metrics[key].Value
		if a != b || a == 0 {
			t.Errorf("%s: %s read %v then %v", name, key, a, b)
		}
	}
}

func TestWrongDigestFailsTheRun(t *testing.T) {
	sz := tinyConverge
	sz.digest = "0000000000000000"
	res, err := runConverge(runConfig{seed: 1, seconds: 0.1}, newTracer(false), sz)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.errs) == 0 || res.failed == 0 {
		t.Fatal("a wrong pinned digest passed the output checks")
	}
	var out bytes.Buffer
	if err := emit(&out, "converge-2k", runConfig{seed: 1}, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"correct":false`) {
		t.Fatalf("result line does not report the failure:\n%s", out.String())
	}
}

func TestIncidentChecksFailOnWrongOutcome(t *testing.T) {
	victim := topo.ASN(7)
	good := incidentRecord{outages: 1, poisons: 1, closed: true, repaired: true, unpoisoned: true,
		fixed: 6 * time.Minute, poisoned: map[topo.ASN]bool{victim: true}}
	for name, c := range map[string]struct {
		rec    incidentRecord
		victim topo.ASN
		bad    bool
	}{
		"repaired":            {good, victim, false},
		"wrong victim":        {with(good, func(r *incidentRecord) { r.repaired = false }), victim + 1, false},
		"undetected":          {with(good, func(r *incidentRecord) { r.outages = 0 }), victim, true},
		"never recovered":     {with(good, func(r *incidentRecord) { r.closed = false }), victim, true},
		"poison did not help": {with(good, func(r *incidentRecord) { r.repaired = false }), victim, true},
		"repaired after heal": {with(good, func(r *incidentRecord) { r.fixed = time.Hour }), victim, true},
		"poison left in":      {with(good, func(r *incidentRecord) { r.unpoisoned = false }), victim, true},
	} {
		res := newResult(nil)
		res.checkIncident(name, c.rec, c.victim, 10*time.Minute)
		if bad := res.failed > 0; bad != c.bad {
			t.Errorf("%s: failed=%v, want %v (%v)", name, bad, c.bad, res.errs)
		}
	}
}

func with(r incidentRecord, f func(*incidentRecord)) incidentRecord {
	f(&r)
	return r
}

func TestEpochChecksFailOnWrongAccounting(t *testing.T) {
	good := lifeguard.TrafficEpochReport{Seconds: 30, Flows: 10, Served: 7, Lost: 3, UserSecondsLost: 90}
	for name, c := range map[string]struct {
		rep lifeguard.TrafficEpochReport
		bad bool
	}{
		"consistent":        {good, false},
		"flows unaccounted": {func() lifeguard.TrafficEpochReport { r := good; r.Served = 6; return r }(), true},
		"user-seconds off":  {func() lifeguard.TrafficEpochReport { r := good; r.UserSecondsLost = 60; return r }(), true},
	} {
		res := newResult(nil)
		res.checkEpoch(0, c.rep)
		if bad := len(res.errs) > 0; bad != c.bad {
			t.Errorf("%s: failed=%v, want %v", name, bad, c.bad)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, med, q3 := quartiles(xs)
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

func TestSteadyVerdictIsTwoSided(t *testing.T) {
	for _, c := range []struct {
		med1    float64
		spreads []float64
		want    string
	}{
		{105, []float64{0.05, 0.05}, "agree"},
		{125, []float64{0.05, 0.05}, "disagree"},
		{75, []float64{0.05, 0.05}, "disagree"},
		{100, []float64{0.05, 0.3}, "unresolved"},
		{100, []float64{math.NaN(), 0.05}, "unresolved"},
	} {
		if got := steadyVerdict(100, c.med1, c.spreads, 0.2); got != c.want {
			t.Errorf("medians 100 then %v, spreads %v: %s, want %s", c.med1, c.spreads, got, c.want)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for n, want := range map[int]float64{1000: 99, 200: 95, 100: 90, 40: 75, 10: 50} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}
