package main

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"lifeguard"
	"lifeguard/internal/obs"
	"lifeguard/internal/topo"
	"lifeguard/internal/topogen"
)

// trafficSize sizes the traffic-1m workload.
type trafficSize struct {
	// The Internet is the same on every run (topoSeed); --seed picks the
	// origin, the vantages, the flows and the struck ASes.
	topoSeed        int64
	transits, stubs int
	flows           int
	vantages, dests int
	churn           float64
	epoch           time.Duration
	setups          int
	// Each cycle of cycleEpochs epochs strikes one reverse-path blackhole
	// before epoch strikeAt and heals it before epoch healAt.
	cycleEpochs, strikeAt, healAt int
	// minEpochs always run, whatever the machine's speed, and set the tail
	// percentile; user-seconds lost is taken over the first detCycles
	// cycles, so it repeats exactly for a seed.
	minEpochs, detCycles int
}

// fullTraffic is the benchmark's traffic-1m: a million flows from 8
// vantages toward 16 addresses of the origin's production /24.
var fullTraffic = trafficSize{
	topoSeed: 1, transits: 60, stubs: 300,
	flows: 1_000_000, vantages: 8, dests: 16, churn: 0.01, epoch: 30 * time.Second,
	setups: 3, cycleEpochs: 40, strikeAt: 2, healAt: 26, minEpochs: 100, detCycles: 2,
}

// trafficDests spreads n weighted destinations over origin's production
// /24.
func trafficDests(origin topo.ASN, n int) []lifeguard.TrafficDest {
	base := topo.ProductionAddr(origin).As4()
	var dests []lifeguard.TrafficDest
	for i := 0; i < n; i++ {
		addr := netip.AddrFrom4([4]byte{base[0], base[1], base[2], byte(1 + i)})
		dests = append(dests, lifeguard.TrafficDest{Addr: addr, Weight: 1 + i%3})
	}
	return dests
}

// checkEpoch checks one epoch's accounting: every flow is served or
// lost, and the user-seconds lost are the lost flows times the epoch.
func (r *result) checkEpoch(i int, rep lifeguard.TrafficEpochReport) {
	r.check(rep.Served+rep.Lost == rep.Flows, "epoch %d: served %d + lost %d != flows %d", i, rep.Served, rep.Lost, rep.Flows)
	r.check(rep.UserSecondsLost == rep.Lost*rep.Seconds, "epoch %d: %d user-seconds lost, want lost %d × %d s", i, rep.UserSecondsLost, rep.Lost, rep.Seconds)
}

// runTraffic runs traffic-1m: one session carrying a seeded flow
// population while reverse-path blackholes strike, get repaired by the
// armed loop, and heal.
func runTraffic(cfg runConfig, tr *tracer, sz trafficSize) (*result, error) {
	res := newResult(tr)
	reg := obs.New()
	gcfg := lifeguard.InternetConfig{Seed: sz.topoSeed, NumTransit: sz.transits, NumStub: sz.stubs}
	detEpochs := sz.detCycles * sz.cycleEpochs
	var (
		r       *daemonRig
		gen     *lifeguard.TrafficGenerator
		victims []topo.ASN
	)
	setup := func(rep int) (time.Duration, time.Duration, error) {
		r, gen = nil, nil
		dropState()
		t0 := time.Now()
		var conv time.Duration
		var err error
		r, conv, err = buildRig(tr, gcfg, reg, func(g *topogen.Result) (_, _, _ []topo.ASN) {
			picked := pickStubs(g, cfg.seed, 1+sz.vantages+2)
			return picked[:1], picked[1 : 1+sz.vantages], picked[1+sz.vantages:]
		})
		if err != nil {
			return 0, 0, err
		}
		s := r.sessions[0]
		gen, err = s.AttachTraffic(lifeguard.TrafficConfig{
			Seed:  uint64(cfg.seed),
			Flows: sz.flows,
			Dests: trafficDests(s.Origin(), sz.dests),
			Epoch: sz.epoch,
			Churn: sz.churn,
		})
		if err != nil {
			return 0, 0, err
		}
		runFor(tr, r.net.Clk, warmUp)
		for i := 0; i < 2; i++ {
			runFor(tr, r.net.Clk, gen.Epoch())
			runEpoch(tr, gen)
		}
		d := time.Since(t0)
		if rep == 0 {
			// One struck AS per cycle, on some vantage's reverse path.
			rng := rand.New(rand.NewSource(cfg.seed ^ 0x7AFF1C))
			for i := 0; len(victims) < 8 && i < 200; i++ {
				v := r.targetASs[rng.Intn(len(r.targetASs))]
				if h := avoidableHop(rng, r.net, s.Origin(), v, r.targetASs); h != 0 {
					victims = append(victims, h)
				}
			}
			if len(victims) == 0 {
				return 0, 0, fmt.Errorf("no avoidable transit hop on any vantage's reverse path")
			}
		}
		return d, conv, nil
	}

	var (
		packets                       int64
		epochWall                     time.Duration
		served, flowEpochs, userSecs  int64
		lostBy                        = make([]int64, len(lostReasons))
		cycleLost                     []int64
		h0                            int
		victim                        topo.ASN
		fault                         lifeguard.FailureID
		struckAt, healedAt            time.Duration
		repairedCycles, checkedCycles int
		updatesDet                    int
		// detRecs are the first detCycles cycles' incidents, struck on
		// detVictims.
		detRecs    []incidentRecord
		detVictims []topo.ASN
	)
	op := func(i, j int) (time.Duration, error) {
		n, s := r.net, r.sessions[0]
		k := j % sz.cycleEpochs
		switch k {
		case 0:
			h0 = len(s.History)
			cycleLost = cycleLost[:0]
		case sz.strikeAt:
			// The struck AS depends only on the cycle's place in its
			// set-up, so every set-up strikes the same sequence.
			victim = victims[(j/sz.cycleEpochs)%len(victims)]
			fault = n.InjectFailure(lifeguard.BlackholeASTowards(victim, lifeguard.Block(s.Origin())))
			struckAt = n.Clk.Now()
		case sz.healAt:
			n.HealFailure(fault)
			healedAt = n.Clk.Now()
		}
		runFor(tr, n.Clk, gen.Epoch())
		t0 := time.Now()
		rep := runEpoch(tr, gen)
		d := time.Since(t0)
		packets += rep.Packets
		epochWall += d

		res.attempted++
		nerr := len(res.errs)
		res.checkEpoch(i, rep)
		cycleLost = append(cycleLost, rep.Lost)
		if k == sz.cycleEpochs-1 {
			outage := false
			for _, l := range cycleLost[sz.strikeAt:sz.healAt] {
				outage = outage || l > 0
			}
			cycle := i / sz.cycleEpochs
			res.check(cycleLost[0] == 0 && cycleLost[sz.strikeAt-1] == 0, "cycle %d: flows lost before the blackhole", cycle)
			res.check(outage, "cycle %d: the blackhole cost no flows", cycle)
			res.check(rep.Lost == 0, "cycle %d: %d flows still lost at the cycle's end", cycle, rep.Lost)
			rec := observe(s.History[h0:], struckAt)
			if rec.repaired && rec.fixed <= healedAt-struckAt {
				repairedCycles++
			}
			checkedCycles++
			res.checkIncident(fmt.Sprintf("cycle %d", cycle), rec, victim, healedAt-struckAt)
			if i < detEpochs {
				detRecs = append(detRecs, rec)
				detVictims = append(detVictims, victim)
			}
		}
		if len(res.errs) > nerr {
			res.failed++
		}
		if i < detEpochs {
			served += rep.Served
			flowEpochs += rep.Flows
			userSecs += rep.UserSecondsLost
			for j, reason := range lostReasons {
				lostBy[j] += rep.LostByReason[reason]
			}
		}
		if i == detEpochs-1 {
			updatesDet = n.Eng.TotalUpdatesSent()
		}
		return d, nil
	}

	minEpochs := max(sz.minEpochs, detEpochs)
	rs, err := runPlan(cfg, tr, plan{
		workload: "traffic-1m", setups: sz.setups, detOps: detEpochs, minOps: minEpochs,
		cycle: sz.cycleEpochs, setup: setup, now: func() time.Duration { return r.net.Clk.Now() }, op: op,
	})
	if err != nil {
		return nil, err
	}
	res.report("packets_per_s", float64(packets)/epochWall.Seconds(), "packets/s", fmt.Sprintf("%d flows", gen.Flows()))
	res.report("user_seconds_lost", float64(userSecs), "user-s", fmt.Sprintf("first %d epochs", detEpochs))
	res.report("repaired_cycles", float64(repairedCycles), "count", fmt.Sprintf("of %d blackholes, repaired by a poison before the heal", checkedCycles))
	if tr.enabled() {
		tr.set("bgp.updates_sent", float64(updatesDet))
		summarise(detRecs, detVictims).layers(tr)
		tr.set("traffic.user_seconds_lost", float64(userSecs))
		tr.set("traffic.served_frac", float64(served)/float64(flowEpochs))
		for j, reason := range lostReasons {
			tr.set("traffic.lost_by_reason."+reason.String(), float64(lostBy[j]))
		}
		tr.set("atlas.refresh_per_min", r.sessions[0].Atlas.RefreshRatePerMinute())
		ribLayers(tr, r.net.Eng)
		obsLayers(tr, reg)
	}
	return res, res.runMetrics(rs, "epoch", minEpochs)
}
