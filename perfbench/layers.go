package main

import (
	"fmt"
	"net/netip"
	"strings"
	"time"

	"lifeguard"
	"lifeguard/internal/bgp"
	"lifeguard/internal/dataplane"
	"lifeguard/internal/obs"
	"lifeguard/internal/simclock"
)

// layerDefs are the per-layer metrics the traced run prints, on every
// workload; a layer the workload does not exercise reads 0. Counts taken
// from the program's obs registry cover the whole run; times and
// wrapper-measured ratios cover the traced spans (set-up and the second
// half of the loop); metrics named _p50, _frac or per_call over incidents
// or epochs cover the run's first, fixed set of operations, so they repeat
// exactly for a seed.
var layerDefs = func() []metricDef {
	defs := []metricDef{
		{"topogen.generate_ms", "ms"},
		{"lifeguard.assemble_s", "s"},
		{"lifeguard.session_start_ms", "ms"},
		{"lifeguard.repair_virtual_s_p50", "s"},
		{"bgp.converge_busy_s", "s"},
		{"bgp.updates_sent", "count"},
		{"bgp.ns_per_update", "ns"},
		{"bgp.allocs_per_update", "count"},
		{"bgp.decision_runs", "count"},
		{"bgp.mrai_deferrals", "count"},
		{"bgp.locrib_routes", "count"},
		{"bgp.adjrib_entries", "count"},
		{"bgp.arena_paths", "count"},
		{"bgp.sim_converge_s", "s"},
		{"bgp.cpu_share", "ratio"},
		{"simclock.runfor_busy_s", "s"},
		{"simclock.queue_len_max", "count"},
		{"simclock.cpu_share", "ratio"},
		{"dataplane.packets_forwarded", "count"},
		{"dataplane.packets_dropped", "count"},
		{"dataplane.ns_per_packet", "ns"},
		{"dataplane.allocs_per_packet", "count"},
		{"dataplane.cpu_share", "ratio"},
		{"probe.probes", "count"},
		{"probe.packets", "count"},
		{"probe.rate_limited", "count"},
		{"probe.cpu_share", "ratio"},
		{"atlas.refresh_per_min", "1/min"},
		{"monitor.rounds", "count"},
		{"monitor.detect_virtual_s_p50", "s"},
		{"isolation.calls", "count"},
		{"isolation.wall_ms_p50", "ms"},
		{"isolation.probes_per_call", "count"},
		{"isolation.virtual_s_p50", "s"},
		{"isolation.blame_correct_frac", "ratio"},
		{"remedy.poisons", "count"},
		{"remedy.unpoisons", "count"},
		{"remedy.sentinel_checks", "count"},
		{"remedy.refusals", "count"},
		{"remedy.poison_useful_frac", "ratio"},
		{"remedy.decide_virtual_s_p50", "s"},
		{"traffic.epoch_busy_s", "s"},
		{"traffic.packets", "count"},
		{"traffic.served_frac", "ratio"},
		{"traffic.user_seconds_lost", "user-s"},
		{"traffic.cpu_share", "ratio"},
	}
	for _, r := range lostReasons {
		defs = append(defs, metricDef{"traffic.lost_by_reason." + r.String(), "count"})
	}
	defs = append(defs,
		metricDef{"runtime.cpu_share", "ratio"},
		metricDef{"go.gc_cycles", "count"},
		metricDef{"go.gc_pause_ms", "ms"},
		metricDef{"go.alloc_mb", "MB"},
	)
	for _, s := range spanNames {
		defs = append(defs, metricDef{"span." + s + ".self_s", "s"})
	}
	return append(defs, metricDef{"trace.overhead", "ratio"})
}()

// lostReasons are the drop reasons a lost flow-epoch is attributed to.
var lostReasons = []dataplane.DropReason{
	dataplane.NoRoute, dataplane.Blackhole, dataplane.TTLExpired, dataplane.ForwardLoop,
}

// cpuPackages are the module packages whose CPU share is reported.
var cpuPackages = []string{"bgp", "simclock", "dataplane", "probe", "traffic", "runtime"}

// perLayer assembles the per-layer metrics from what the traced run
// recorded. Names ending _p50 are medians of the samples recorded under
// the name without the suffix.
func perLayer(tr *tracer) (map[string]float64, error) {
	out := map[string]float64{}
	for k, v := range tr.vals {
		if !strings.HasPrefix(k, "_") {
			out[k] = v
		}
	}
	for k, xs := range tr.samples {
		out[k+"_p50"] = median(xs)
	}
	ratio := func(name, num, den string) {
		if d := tr.vals[den]; d > 0 {
			out[name] = tr.vals[num] / d
		}
	}
	ratio("bgp.ns_per_update", "_conv_ns", "_conv_updates")
	ratio("bgp.allocs_per_update", "_conv_mallocs", "_conv_updates")
	ratio("dataplane.ns_per_packet", "_epoch_ns", "_epoch_packets")
	ratio("dataplane.allocs_per_packet", "_epoch_mallocs", "_epoch_packets")

	self := tr.selfTimes()
	for _, s := range spanNames {
		out["span."+s+".self_s"] = self[s]
	}
	shares, err := cpuShares(tr.profile.Bytes())
	if err != nil {
		return nil, err
	}
	for _, p := range cpuPackages {
		out[p+".cpu_share"] = shares[p]
	}
	for k := range out {
		if !isLayerMetric(k) {
			return nil, fmt.Errorf("traced run recorded undeclared metric %q", k)
		}
	}
	return out, nil
}

func isLayerMetric(name string) bool {
	for _, d := range layerDefs {
		if d.name == name {
			return true
		}
	}
	return false
}

// counterTotals sums every counter series of reg by metric name, across
// labels (tenants, reasons, primitives).
func counterTotals(reg *obs.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, m := range reg.Snapshot().Metrics {
		if m.Kind == "counter" {
			out[m.Name] += float64(m.Value)
		}
	}
	return out
}

// obsLayers copies the program's own counters into the per-layer metrics.
func obsLayers(tr *tracer, reg *obs.Registry) {
	if !tr.enabled() {
		return
	}
	c := counterTotals(reg)
	for layer, series := range map[string]string{
		"bgp.decision_runs":           "lifeguard_bgp_decision_runs_total",
		"bgp.mrai_deferrals":          "lifeguard_bgp_mrai_deferrals_total",
		"dataplane.packets_forwarded": "lifeguard_dataplane_packets_forwarded_total",
		"dataplane.packets_dropped":   "lifeguard_dataplane_packets_dropped_total",
		"probe.probes":                "lifeguard_probe_probes_total",
		"probe.packets":               "lifeguard_probe_packets_total",
		"probe.rate_limited":          "lifeguard_probe_rate_limited_total",
		"monitor.rounds":              "lifeguard_monitor_ping_rounds_total",
		"isolation.calls":             "lifeguard_isolation_runs_total",
		"remedy.poisons":              "lifeguard_remedy_poisons_total",
		"remedy.unpoisons":            "lifeguard_remedy_unpoisons_total",
		"remedy.sentinel_checks":      "lifeguard_remedy_sentinel_checks_total",
		"traffic.packets":             "lifeguard_traffic_packets_total",
	} {
		tr.set(layer, c[series])
	}
}

// ribLayers records the engine's routing-state footprint.
func ribLayers(tr *tracer, eng *bgp.Engine) {
	if !tr.enabled() {
		return
	}
	loc, adj := eng.RIBSizes()
	tr.set("bgp.locrib_routes", float64(loc))
	tr.set("bgp.adjrib_entries", float64(adj))
	tr.set("bgp.arena_paths", float64(eng.PathArenaSize()))
}

const maxConvergeSteps = 2_000_000_000

// converge drains the control plane, recording the bgp layer's busy time,
// update count and allocations when tracing.
func converge(tr *tracer, eng *bgp.Engine) bool {
	if !tr.enabled() {
		return eng.Converge(maxConvergeSteps)
	}
	tr.max("simclock.queue_len_max", float64(eng.Clock().Len()))
	u0 := eng.TotalUpdatesSent()
	m0 := readMem()
	var ok bool
	d := tr.do("bgp.Converge", func() { ok = eng.Converge(maxConvergeSteps) })
	md := memSince(m0)
	tr.add("bgp.converge_busy_s", d)
	tr.add("_conv_ns", d*1e9)
	tr.add("_conv_updates", float64(eng.TotalUpdatesSent()-u0))
	tr.add("_conv_mallocs", float64(md.mallocs))
	return ok
}

func announce(tr *tracer, eng *bgp.Engine, asn lifeguard.ASN, p netip.Prefix, cfg bgp.OriginConfig) {
	tr.do("bgp.Announce", func() { eng.Announce(asn, p, cfg) })
}

// runFor advances virtual time, recording the scheduler's busy time and
// queue length when tracing.
func runFor(tr *tracer, clk *simclock.Scheduler, d time.Duration) {
	if !tr.enabled() {
		clk.RunFor(d)
		return
	}
	tr.max("simclock.queue_len_max", float64(clk.Len()))
	tr.add("simclock.runfor_busy_s", tr.do("simclock.RunFor", func() { clk.RunFor(d) }))
}

// runEpoch closes one traffic epoch, recording the traffic layer's busy
// time and the data plane's cost per packet when tracing.
func runEpoch(tr *tracer, gen *lifeguard.TrafficGenerator) lifeguard.TrafficEpochReport {
	if !tr.enabled() {
		return gen.RunEpoch()
	}
	m0 := readMem()
	var rep lifeguard.TrafficEpochReport
	d := tr.do("traffic.RunEpoch", func() { rep = gen.RunEpoch() })
	md := memSince(m0)
	tr.add("traffic.epoch_busy_s", d)
	tr.add("_epoch_ns", d*1e9)
	tr.add("_epoch_packets", float64(rep.Packets))
	tr.add("_epoch_mallocs", float64(md.mallocs))
	return rep
}

// memLayers records the Go runtime's activity over a phase.
func memLayers(tr *tracer, d memDelta) {
	tr.set("go.gc_cycles", float64(d.gcs))
	tr.set("go.gc_pause_ms", float64(d.pauseNs)/1e6)
	tr.set("go.alloc_mb", float64(d.bytes)/(1<<20))
}
