package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"lifeguard/internal/bgp"
	"lifeguard/internal/dataplane"
	"lifeguard/internal/experiments"
	"lifeguard/internal/simclock"
	"lifeguard/internal/topo"
	"lifeguard/internal/topogen"
	"lifeguard/internal/traffic"
)

// The -traffic family measures the traffic-at-scale dataplane two ways:
// modelled-flow throughput (the same million-flow population pushed through
// the grouped and the single-packet forwarding paths, packets/sec each),
// and the user-seconds-lost experiment's headline numbers (the same
// outage timeline scored with the repair loop armed and disarmed). The
// grouped/single ratio is the amortization claim; the experiment numbers
// are the fidelity claim.

// TrafficThroughput is one forwarding mode's measurement.
type TrafficThroughput struct {
	Epochs        int     `json:"epochs"`
	Packets       int64   `json:"packets"`
	WallMS        float64 `json:"wall_ms"`
	PacketsPerSec float64 `json:"packets_per_sec"`
	FlowsPerSec   float64 `json:"flows_per_sec"`
}

// TrafficExperiment carries the user-seconds-lost sweep's headline values.
type TrafficExperiment struct {
	Seed                    int64   `json:"seed"`
	Flows                   float64 `json:"flows"`
	UserSecondsLostRepair   float64 `json:"user_seconds_lost_repair"`
	UserSecondsLostNoRepair float64 `json:"user_seconds_lost_norepair"`
	SavedFrac               float64 `json:"user_seconds_saved_frac"`
	AvailabilityRepair      float64 `json:"availability_repair"`
	AvailabilityNoRepair    float64 `json:"availability_norepair"`
	Violations              float64 `json:"violations"`
}

// TrafficReport is the BENCH_pr10.json schema.
type TrafficReport struct {
	Schema    string            `json:"schema"`
	GoVersion string            `json:"go_version"`
	Flows     int               `json:"flows"`
	Vantages  int               `json:"vantages"`
	Dests     int               `json:"dests"`
	Batched   TrafficThroughput `json:"batched"`
	Single    TrafficThroughput `json:"single"`
	// Speedup is grouped vs single: packets/sec with one Plane.ForwardN
	// per flow group (the Batched field) over packets/sec with one
	// Plane.Forward per packet (target >= 3x).
	Speedup    float64           `json:"speedup"`
	Experiment TrafficExperiment `json:"experiment"`
}

// trafficRig builds the converged ~100-AS throughput internetwork.
func trafficRig() (*topogen.Result, *simclock.Scheduler, *dataplane.Plane, error) {
	res, err := topogen.Generate(topogen.Config{Seed: 1, NumTransit: 25, NumStub: 80})
	if err != nil {
		return nil, nil, nil, err
	}
	clk := simclock.New()
	eng := bgp.New(res.Top, clk, bgp.Config{Seed: 1})
	for _, asn := range res.Top.ASNs() {
		eng.Originate(asn, topo.Block(asn))
	}
	if !eng.Converge(500_000_000) {
		return nil, nil, nil, fmt.Errorf("throughput rig did not converge")
	}
	return res, clk, dataplane.New(res.Top, eng), nil
}

// measureTrafficMode times epochs of one forwarding mode over a fresh rig,
// so the two modes never share warmed caches or churned flow state.
func measureTrafficMode(flows, epochs int, single bool) (TrafficThroughput, int, int, error) {
	res, clk, plane, err := trafficRig()
	if err != nil {
		return TrafficThroughput{}, 0, 0, err
	}
	var vantages []topo.ASN
	for _, s := range res.Stubs[:8] {
		vantages = append(vantages, s)
	}
	var dests []traffic.Dest
	for i, s := range res.Stubs[8:24] {
		dests = append(dests, traffic.Dest{Addr: topo.ProductionAddr(s), Weight: 1 + i%3})
	}
	gen, err := traffic.New(traffic.Deps{Top: res.Top, Clk: clk, Plane: plane}, traffic.Config{
		Seed:         1,
		Flows:        flows,
		Vantages:     vantages,
		Dests:        dests,
		Epoch:        10 * time.Second,
		Churn:        0.02,
		SinglePacket: single,
	})
	if err != nil {
		return TrafficThroughput{}, 0, 0, err
	}

	var packets, flowEpochs int64
	start := time.Now()
	for i := 0; i < epochs; i++ {
		clk.RunFor(gen.Epoch())
		rep := gen.RunEpoch()
		packets += rep.Packets
		flowEpochs += rep.Flows
	}
	wall := time.Since(start)

	tp := TrafficThroughput{
		Epochs:  epochs,
		Packets: packets,
		WallMS:  float64(wall.Milliseconds()),
	}
	if secs := wall.Seconds(); secs > 0 {
		tp.PacketsPerSec = float64(packets) / secs
		tp.FlowsPerSec = float64(flowEpochs) / secs
	}
	return tp, len(vantages), len(dests), nil
}

// runTrafficFamily writes the BENCH_pr10.json report.
func runTrafficFamily(flows, epochs int, seed int64, out string) error {
	rep := TrafficReport{
		Schema:    "lifeguard-bench-traffic/v1",
		GoVersion: runtime.Version(),
		Flows:     flows,
	}

	var err error
	rep.Batched, rep.Vantages, rep.Dests, err = measureTrafficMode(flows, epochs, false)
	if err != nil {
		return err
	}
	fmt.Printf("lgbench: traffic grouped: %d flows, %d epochs, %.0f packets/sec\n",
		flows, epochs, rep.Batched.PacketsPerSec)
	rep.Single, _, _, err = measureTrafficMode(flows, epochs, true)
	if err != nil {
		return err
	}
	fmt.Printf("lgbench: traffic single:  %d flows, %d epochs, %.0f packets/sec\n",
		flows, epochs, rep.Single.PacketsPerSec)
	if rep.Single.PacketsPerSec > 0 {
		rep.Speedup = rep.Batched.PacketsPerSec / rep.Single.PacketsPerSec
	}
	fmt.Printf("lgbench: traffic grouping speedup %.1fx\n", rep.Speedup)

	r := experiments.Traffic(seed)
	rep.Experiment = TrafficExperiment{
		Seed:                    seed,
		Flows:                   r.Values["flows_total"],
		UserSecondsLostRepair:   r.Values["user_seconds_lost_repair"],
		UserSecondsLostNoRepair: r.Values["user_seconds_lost_norepair"],
		SavedFrac:               r.Values["user_seconds_saved_frac"],
		AvailabilityRepair:      r.Values["availability_repair"],
		AvailabilityNoRepair:    r.Values["availability_norepair"],
		Violations:              r.Values["violations_total"],
	}
	fmt.Printf("lgbench: traffic experiment: %.0f user-seconds lost with repair, %.0f without (%.1f%% saved)\n",
		rep.Experiment.UserSecondsLostRepair, rep.Experiment.UserSecondsLostNoRepair,
		100*rep.Experiment.SavedFrac)

	buf, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(out, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("lgbench: wrote traffic report to %s\n", out)
	return nil
}
