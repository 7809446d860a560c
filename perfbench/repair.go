package main

import (
	"fmt"
	"math/rand"
	"time"

	"lifeguard"
	"lifeguard/internal/core/remedy"
	"lifeguard/internal/monitor"
	"lifeguard/internal/obs"
	"lifeguard/internal/splice"
	"lifeguard/internal/topo"
	"lifeguard/internal/topogen"
)

// repairSize sizes the repair-mt workload.
type repairSize struct {
	// The rig is the same on every run: the Internet of topoSeed with
	// lifeguardd's layout (tenants on the first stubs, monitored targets
	// and helper vantage points on the last). --seed drives the incident
	// sequence.
	topoSeed        int64
	transits, stubs int
	tenants         int
	setups          int
	// minIncidents always run, whatever the machine's speed; the
	// per-incident figures are taken over the first detIncidents of them,
	// so they repeat exactly for a seed, and the count sets the tail
	// percentile.
	minIncidents, detIncidents int
	// hold is how long each blackhole lasts before it heals, in virtual
	// time; window bounds how long its outages then take to recover and
	// its poison to be withdrawn.
	hold, window time.Duration
}

// fullRepair is the benchmark's repair-mt: 4 tenants over a 365-AS
// Internet, each blackhole held for the 35 minutes lifeguardd holds its
// scripted faults.
var fullRepair = repairSize{topoSeed: 1, transits: 60, stubs: 300, tenants: 4, setups: 5,
	minIncidents: 200, detIncidents: 40, hold: 35 * time.Minute, window: 30 * time.Minute}

const warmUp = 5 * time.Minute

// daemonRig is a lifeguardd-shaped rig: every AS's /16 originated,
// tenants, monitored targets and helper vantage points on stub ASes.
type daemonRig struct {
	net       *lifeguard.Network
	reg       *obs.Registry
	sessions  []*lifeguard.Session
	targetASs []topo.ASN
}

// buildRig generates and converges the Internet and starts one session
// per origin that roles picks; targets are the monitored ASes, helpers the
// extra vantage points. It returns the cold convergence's wall time.
func buildRig(tr *tracer, gcfg topogen.Config, reg *obs.Registry,
	roles func(*topogen.Result) (origins, targets, helpers []topo.ASN)) (*daemonRig, time.Duration, error) {
	var gen *topogen.Result
	var err error
	d := tr.do("topogen.Generate", func() { gen, err = topogen.Generate(gcfg) })
	if err != nil {
		return nil, 0, fmt.Errorf("topogen: %w", err)
	}
	tr.set("topogen.generate_ms", d*1000)

	var n *lifeguard.Network
	var conv time.Duration
	ok := true
	d = tr.do("lifeguard.AssembleNetwork", func() {
		n, err = lifeguard.AssembleNetwork(gen.Top, lifeguard.NetworkOptions{Seed: gcfg.Seed, Obs: reg, SkipConverge: true})
		if err != nil {
			return
		}
		c0 := time.Now()
		ok = converge(tr, n.Eng)
		conv = time.Since(c0)
	})
	if err != nil {
		return nil, 0, err
	}
	if !ok {
		return nil, 0, fmt.Errorf("initial convergence did not complete")
	}
	tr.set("lifeguard.assemble_s", d)
	tr.set("bgp.sim_converge_s", n.Clk.Now().Seconds())
	n.Gen = gen

	r := &daemonRig{net: n, reg: reg}
	origins, targetASs, helpers := roles(gen)
	r.targetASs = targetASs
	var addrs []lifeguard.Addr
	for _, t := range targetASs {
		addrs = append(addrs, n.RouterAddr(n.Hub(t)))
	}
	rig := lifeguard.NewRig(n)
	d = tr.do("lifeguard.SessionStart", func() {
		for _, o := range origins {
			vps := []lifeguard.RouterID{n.Hub(o)}
			for _, h := range helpers {
				vps = append(vps, n.Hub(h))
			}
			var s *lifeguard.Session
			s, err = rig.AddSession(lifeguard.SessionConfig{Config: lifeguard.Config{Origin: o, VPs: vps, Targets: addrs}})
			if err != nil {
				return
			}
			wrapHooks(tr, s)
			s.Start()
			r.sessions = append(r.sessions, s)
		}
	})
	if err != nil {
		return nil, 0, err
	}
	tr.set("lifeguard.session_start_ms", d*1000)
	return r, conv, nil
}

// pickStubs returns n distinct stub ASes in a seeded order.
func pickStubs(g *topogen.Result, seed int64, n int) []topo.ASN {
	var out []topo.ASN
	for _, i := range rand.New(rand.NewSource(seed)).Perm(len(g.Stubs))[:n] {
		out = append(out, g.Stubs[i])
	}
	return out
}

// wrapHooks wraps the session's outage and unpoison hooks in spans; the
// outage hook runs isolation synchronously, so its wall time is the
// isolation layer's.
func wrapHooks(tr *tracer, s *lifeguard.Session) {
	onOutage := s.Monitor.OnOutage
	s.Monitor.OnOutage = func(o *monitor.Outage) {
		sp := tr.begin("monitor.OnOutage")
		onOutage(o)
		if d := tr.end(sp); sp >= 0 {
			tr.sample("isolation.wall_ms", d*1000)
		}
	}
	onUnpoison := s.Remedy.OnUnpoison
	s.Remedy.OnUnpoison = func(r *remedy.Repair) {
		sp := tr.begin("remedy.OnUnpoison")
		onUnpoison(r)
		tr.end(sp)
	}
}

// incident is one planned reverse-path blackhole.
type incident struct {
	tenant int
	victim topo.ASN
}

// avoidableHop returns a hop on target's path toward origin's production
// prefix that every monitored target crossing it can route around, or 0.
func avoidableHop(rng *rand.Rand, n *lifeguard.Network, origin, target topo.ASN, targets []topo.ASN) topo.ASN {
	addr := topo.ProductionAddr(origin)
	var cands []topo.ASN
	for _, hop := range n.Eng.ASPathTo(target, addr) {
		if hop == origin || hop == target {
			continue
		}
		ok := true
		for _, t := range targets {
			for _, h := range n.Eng.ASPathTo(t, addr) {
				if h == hop && !splice.CanReach(n.Top, t, origin, splice.Avoid1(hop)) {
					ok = false
				}
			}
		}
		if ok {
			cands = append(cands, hop)
		}
	}
	if len(cands) == 0 {
		return 0
	}
	return cands[rng.Intn(len(cands))]
}

// incidentRecord is what a session's history shows of one incident, in
// virtual time from the injection.
type incidentRecord struct {
	outages, poisons, refusals int
	// closed is set while every outage the incident opened has
	// recovered; repaired once that first held under a poison, at fixed.
	closed, repaired      bool
	detect, decide, fixed time.Duration
	poisoned              map[topo.ASN]bool
	unpoisoned            bool
	isolations            []*lifeguard.Event
}

// observe summarises a session's history since one incident's injection.
func observe(evs []lifeguard.Event, inj time.Duration) incidentRecord {
	rec := incidentRecord{poisoned: map[topo.ASN]bool{}}
	open := map[[2]string]bool{}
	for i := range evs {
		e := &evs[i]
		key := [2]string{fmt.Sprint(e.VP), e.Target.String()}
		switch e.Kind {
		case lifeguard.EventOutage:
			if rec.outages == 0 {
				rec.detect = e.At - inj
			}
			rec.outages++
			open[key] = true
			rec.closed = false
		case lifeguard.EventRecovered:
			delete(open, key)
			if len(open) == 0 && rec.outages > 0 {
				if rec.poisons > 0 && !rec.repaired {
					rec.fixed, rec.repaired = e.At-inj, true
				}
				rec.closed = true
			}
		case lifeguard.EventIsolated:
			if !e.Report.Healed {
				rec.isolations = append(rec.isolations, e)
			}
		case lifeguard.EventRepair:
			if e.Action == remedy.Poisoned || e.Action == remedy.SelectivelyPoisoned {
				if rec.poisons == 0 {
					rec.decide = e.At - inj
				}
				rec.poisons++
				rec.poisoned[e.Avoided] = true
			} else {
				rec.refusals++
			}
		case lifeguard.EventUnpoison:
			rec.unpoisoned = true
		}
	}
	return rec
}

// checkIncident applies the output checks every struck incident must
// pass: the blackhole is detected, every outage it opened recovers, a
// poison of the struck AS restores reachability before the heal, and a
// poison is withdrawn once the sentinel sees the heal.
func (r *result) checkIncident(what string, rec incidentRecord, victim topo.ASN, healed time.Duration) {
	r.attempted++
	nerr := len(r.errs)
	r.check(rec.outages > 0, "%s: AS%d's blackhole went undetected", what, victim)
	r.check(rec.closed, "%s: outages opened by AS%d's blackhole never recovered", what, victim)
	r.check(!rec.poisoned[victim] || (rec.repaired && rec.fixed <= healed),
		"%s: poisoning AS%d did not restore reachability before the heal", what, victim)
	r.check(rec.poisons == 0 || rec.unpoisoned, "%s: the poison was not withdrawn after the heal", what)
	if len(r.errs) > nerr {
		r.failed++
	}
}

// planIncidents picks n incidents in a seeded order: tenants in turn,
// each struck on an avoidable hop of a random monitored target's path.
func planIncidents(rng *rand.Rand, r *daemonRig, n int) ([]incident, error) {
	var out []incident
	for i := 0; len(out) < n && i < 10*n; i++ {
		t := i % len(r.sessions)
		target := r.targetASs[rng.Intn(len(r.targetASs))]
		if v := avoidableHop(rng, r.net, r.sessions[t].Origin(), target, r.targetASs); v != 0 {
			out = append(out, incident{t, v})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no avoidable transit hop on any monitored reverse path")
	}
	return out, nil
}

// runRepair runs repair-mt: tenants sharing one rig, struck in turn by
// seeded silent reverse-path blackholes that each run
// detect→isolate→poison→recover, then heal and unpoison.
func runRepair(cfg runConfig, tr *tracer, sz repairSize) (*result, error) {
	res := newResult(tr)
	reg := obs.New()
	gcfg := lifeguard.InternetConfig{Seed: sz.topoSeed, NumTransit: sz.transits, NumStub: sz.stubs}
	var (
		r          *daemonRig
		incidents  []incident
		recs       []incidentRecord
		victims    []topo.ASN
		updatesDet int
	)
	setup := func(rep int) (time.Duration, time.Duration, error) {
		r = nil
		dropState()
		t0 := time.Now()
		var conv time.Duration
		var err error
		r, conv, err = buildRig(tr, gcfg, reg, func(g *topogen.Result) (_, _, _ []topo.ASN) {
			s := g.Stubs
			return s[:sz.tenants], s[len(s)-6 : len(s)-2], s[len(s)-2:]
		})
		if err != nil {
			return 0, 0, err
		}
		runFor(tr, r.net.Clk, warmUp)
		d := time.Since(t0)
		if rep == 0 {
			incidents, err = planIncidents(rand.New(rand.NewSource(cfg.seed)), r, sz.minIncidents)
		}
		return d, conv, err
	}

	op := func(i, _ int) (time.Duration, error) {
		n := r.net
		inc := incidents[i%len(incidents)]
		s := r.sessions[inc.tenant]
		h0 := len(s.History)
		t0 := time.Now()
		inj := n.Clk.Now()
		id := n.InjectFailure(lifeguard.BlackholeASTowards(inc.victim, lifeguard.Block(s.Origin())))
		runFor(tr, n.Clk, sz.hold)
		n.HealFailure(id)
		healed := n.Clk.Now() - inj
		for n.Clk.Now()-inj < healed+sz.window {
			if rec := observe(s.History[h0:], inj); rec.closed && (rec.poisons == 0 || rec.unpoisoned) {
				break
			}
			runFor(tr, n.Clk, time.Minute)
		}
		// Let the unpoison's announcements settle before the next strike.
		runFor(tr, n.Clk, 2*time.Minute)
		d := time.Since(t0)

		rec := observe(s.History[h0:], inj)
		res.checkIncident(fmt.Sprintf("incident %d (tenant %s)", i, s.Tenant()), rec, inc.victim, healed)
		recs = append(recs, rec)
		victims = append(victims, inc.victim)
		if i == sz.detIncidents-1 {
			updatesDet = n.Eng.TotalUpdatesSent()
		}
		return d, nil
	}

	rs, err := runPlan(cfg, tr, plan{
		workload: "repair-mt", setups: sz.setups, detOps: sz.detIncidents, minOps: sz.minIncidents,
		setup: setup, now: func() time.Duration { return r.net.Clk.Now() }, op: op,
	})
	if err != nil {
		return nil, err
	}

	summary := summarise(recs[:sz.detIncidents], victims)
	res.report("repair_virtual_s_p50", median(summary.repairS), "s", fmt.Sprintf("%d of the first %d incidents repaired by a poison", summary.repaired, sz.detIncidents))
	res.report("blame_correct_frac", frac(summary.blamed, summary.isolations), "ratio", fmt.Sprintf("%d of %d isolations", summary.blamed, summary.isolations))
	if tr.enabled() {
		tr.set("bgp.updates_sent", float64(updatesDet))
		summary.layers(tr)
		rate := 0.0
		for _, s := range r.sessions {
			rate += s.Atlas.RefreshRatePerMinute()
		}
		tr.set("atlas.refresh_per_min", rate/float64(len(r.sessions)))
		ribLayers(tr, r.net.Eng)
		obsLayers(tr, reg)
	}
	return res, res.runMetrics(rs, "incident", sz.minIncidents)
}

// incidentSummary gathers the behavioural figures of a run's first, fixed
// incidents.
type incidentSummary struct {
	repairS, detectS, decideS, isoS, probes                 []float64
	blamed, isolations, poisons, useful, refusals, repaired int
}

// summarise reduces incident records to their behavioural figures;
// victims[k] is the AS struck in recs[k].
func summarise(recs []incidentRecord, victims []topo.ASN) incidentSummary {
	var s incidentSummary
	for k, rec := range recs {
		if rec.repaired {
			s.repairS = append(s.repairS, rec.fixed.Seconds())
			s.useful += rec.poisons
			s.repaired++
		}
		if rec.poisons > 0 {
			s.decideS = append(s.decideS, rec.decide.Seconds())
		}
		s.detectS = append(s.detectS, rec.detect.Seconds())
		s.poisons += rec.poisons
		s.refusals += rec.refusals
		for _, e := range rec.isolations {
			s.isolations++
			if e.Report.Blamed == victims[k] {
				s.blamed++
			}
			s.isoS = append(s.isoS, e.Report.EstimatedDuration.Seconds())
			s.probes = append(s.probes, float64(e.Report.ProbesUsed))
		}
	}
	return s
}

// layers records the incident-derived per-layer metrics.
func (s incidentSummary) layers(tr *tracer) {
	tr.set("lifeguard.repair_virtual_s_p50", median(s.repairS))
	tr.set("monitor.detect_virtual_s_p50", median(s.detectS))
	tr.set("remedy.decide_virtual_s_p50", median(s.decideS))
	tr.set("isolation.virtual_s_p50", median(s.isoS))
	tr.set("isolation.probes_per_call", sum(s.probes)/float64(max(len(s.probes), 1)))
	tr.set("isolation.blame_correct_frac", frac(s.blamed, s.isolations))
	tr.set("remedy.poison_useful_frac", frac(s.useful, s.poisons))
	tr.set("remedy.refusals", float64(s.refusals))
}

func frac(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
