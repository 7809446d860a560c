package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/netip"
	"time"

	"lifeguard/internal/bgp"
	"lifeguard/internal/obs"
	"lifeguard/internal/scalebench"
	"lifeguard/internal/simclock"
	"lifeguard/internal/splice"
	"lifeguard/internal/topo"
	"lifeguard/internal/topogen"
)

// convergeSize sizes the converge-2k workload.
type convergeSize struct {
	ases, prefixes int
	// topoSeed fixes the Internet, so the cold convergence is the same
	// input on every run and its loc-RIB digest can be pinned; --seed
	// drives the poison cycles.
	topoSeed int64
	// digest is the pinned loc-RIB digest of the cold convergence.
	digest string
	setups int
	// minCycles poison cycles always run, whatever the machine's speed:
	// the update count is taken over the first detCycles of them, so it
	// repeats exactly for a seed, and the count sets the tail percentile.
	minCycles, detCycles int
}

// fullConverge is the benchmark's converge-2k: the 2,000-AS scalebench
// Internet of seed 7 announcing 200 origin prefixes.
var fullConverge = convergeSize{
	ases: 2000, prefixes: 200, topoSeed: 7,
	digest: "aa6be60eda014c62", setups: 5, minCycles: 200, detCycles: 20,
}

// scalebenchShape is the scalebench topology shape: a small tier-1
// clique, ~20% transit with a mean transit-peer degree near 2, the rest
// stubs.
func scalebenchShape(ases int, seed int64) topogen.Config {
	t1 := 5
	if ases >= 5000 {
		t1 = 10
	}
	transit := ases / 5
	return topogen.Config{
		Seed:            seed,
		NumTier1:        t1,
		NumTransit:      transit,
		NumStub:         ases - t1 - transit,
		TransitPeerProb: 2.0 / float64(transit-1),
		Large:           ases >= 1000,
	}
}

// prefixDigest fingerprints every speaker's best route to one prefix.
func prefixDigest(eng *bgp.Engine, p netip.Prefix) uint64 {
	h := fnv.New64a()
	for _, asn := range eng.Topology().ASNs() {
		if r, ok := eng.BestRoute(asn, p); ok {
			fmt.Fprintf(h, "%d|%v\n", asn, r.Path)
		}
	}
	return h.Sum64()
}

// poisonCycle is one planned poison→converge→unpoison→converge cycle.
type poisonCycle struct {
	origin, poisoned topo.ASN
}

// planCycles picks, for each origin in a seeded order, an AS on some
// other AS's path toward it that that AS can route around — the transit
// hop LIFEGUARD would poison.
func planCycles(rng *rand.Rand, eng *bgp.Engine, origins []topo.ASN) ([]poisonCycle, error) {
	top := eng.Topology()
	asns := top.ASNs()
	var plan []poisonCycle
	for _, idx := range rng.Perm(len(origins)) {
		o := origins[idx]
		addr := topo.ProductionAddr(o)
		var pick topo.ASN
		for try := 0; try < 50 && pick == 0; try++ {
			src := asns[rng.Intn(len(asns))]
			if src == o {
				continue
			}
			for _, hop := range eng.ASPathTo(src, addr) {
				if hop != o && hop != src && splice.CanReach(top, src, o, splice.Avoid1(hop)) {
					pick = hop
					break
				}
			}
		}
		if pick != 0 {
			plan = append(plan, poisonCycle{o, pick})
		}
	}
	if len(plan) == 0 {
		return nil, fmt.Errorf("no origin has an avoidable transit hop")
	}
	return plan, nil
}

// runConverge runs converge-2k: cold full-table convergence of a
// scalebench Internet, then seeded poison cycles, each on another origin.
func runConverge(cfg runConfig, tr *tracer, sz convergeSize) (*result, error) {
	res := newResult(tr)
	reg := obs.New()
	var (
		eng        *bgp.Engine
		cycles     []poisonCycle
		baseline   = map[topo.ASN]uint64{}
		updatesDet int
	)
	setup := func(rep int) (time.Duration, time.Duration, error) {
		eng = nil
		dropState()
		t0 := time.Now()
		var gen *topogen.Result
		var err error
		d := tr.do("topogen.Generate", func() { gen, err = topogen.Generate(scalebenchShape(sz.ases, sz.topoSeed)) })
		if err != nil {
			return 0, 0, fmt.Errorf("topogen: %w", err)
		}
		tr.set("topogen.generate_ms", d*1000)
		eng = bgp.New(gen.Top, simclock.New(), bgp.Config{Seed: sz.topoSeed, Obs: reg})
		prefixes := min(sz.prefixes, len(gen.Stubs))
		stride := len(gen.Stubs) / prefixes
		var origins []topo.ASN
		for i := 0; i < prefixes; i++ {
			origins = append(origins, gen.Stubs[i*stride])
		}
		c0 := time.Now()
		for _, o := range origins {
			eng.Originate(o, topo.ProductionPrefix(o))
		}
		if !converge(tr, eng) {
			return 0, 0, fmt.Errorf("cold convergence did not complete")
		}
		conv, setupTime := time.Since(c0), time.Since(t0)
		tr.set("bgp.sim_converge_s", eng.Clock().Now().Seconds())

		digest := scalebench.Digest(eng)
		res.attempted++
		if digest != sz.digest {
			res.failed++
			res.check(false, "set-up %d: cold loc-RIB digest %s, want %s", rep, digest, sz.digest)
		}
		if rep == 0 {
			res.report("cold_updates", float64(eng.TotalUpdatesSent()), "count", "digest "+digest)
			if cycles, err = planCycles(rand.New(rand.NewSource(cfg.seed)), eng, origins); err != nil {
				return 0, 0, err
			}
			for _, c := range cycles {
				baseline[c.origin] = prefixDigest(eng, topo.ProductionPrefix(c.origin))
			}
		}
		return setupTime, conv, nil
	}

	op := func(i, _ int) (time.Duration, error) {
		c := cycles[i%len(cycles)]
		p := topo.ProductionPrefix(c.origin)
		t0 := time.Now()
		announce(tr, eng, c.origin, p, bgp.OriginConfig{Pattern: topo.Path{c.origin, c.poisoned, c.origin}})
		okPoison := converge(tr, eng)
		poisonTime := time.Since(t0)
		_, poisonedHasRoute := eng.BestRoute(c.poisoned, p)
		t1 := time.Now()
		announce(tr, eng, c.origin, p, bgp.OriginConfig{})
		okUnpoison := converge(tr, eng)
		d := poisonTime + time.Since(t1)

		res.attempted++
		nerr := len(res.errs)
		res.check(okPoison && okUnpoison, "cycle %d: convergence did not complete", i)
		res.check(!poisonedHasRoute, "cycle %d: poisoned AS%d still routes to %v", i, c.poisoned, p)
		res.check(prefixDigest(eng, p) == baseline[c.origin], "cycle %d: unpoison of %v did not restore its routes", i, p)
		if len(res.errs) > nerr {
			res.failed++
		}
		if i == sz.detCycles-1 {
			updatesDet = eng.TotalUpdatesSent()
		}
		return d, nil
	}

	rs, err := runPlan(cfg, tr, plan{
		workload: "converge-2k", setups: sz.setups, detOps: sz.detCycles, minOps: sz.minCycles,
		setup: setup, now: func() time.Duration { return eng.Clock().Now() }, op: op,
	})
	if err != nil {
		return nil, err
	}

	res.attempted++
	if final := scalebench.Digest(eng); final != sz.digest {
		res.failed++
		res.check(false, "loc-RIB digest after the cycles %s, want the cold %s", final, sz.digest)
	}
	res.report("bgp.updates_sent", float64(updatesDet), "count", fmt.Sprintf("cold convergence and the first %d cycles", sz.detCycles))
	tr.set("bgp.updates_sent", float64(updatesDet))
	ribLayers(tr, eng)
	obsLayers(tr, reg)
	return res, res.runMetrics(rs, "poison_cycle", sz.minCycles)
}
