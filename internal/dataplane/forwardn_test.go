package dataplane

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"lifeguard/internal/bgp"
	"lifeguard/internal/obs"
	"lifeguard/internal/simclock"
	"lifeguard/internal/topo"
	"lifeguard/internal/topogen"
)

// twinPlanes builds one converged ~60-AS internetwork and returns two
// fresh planes over it, so a grouped and a single-packet execution of the
// same stream can be compared from identical starting states.
func twinPlanes(t testing.TB) (*topogen.Result, *Plane, *Plane) {
	t.Helper()
	res, err := topogen.Generate(topogen.Config{Seed: 7, NumTransit: 12, NumStub: 48})
	if err != nil {
		t.Fatal(err)
	}
	clk := simclock.New()
	eng := bgp.New(res.Top, clk, bgp.Config{Seed: 7})
	for _, asn := range res.Top.ASNs() {
		eng.Originate(asn, topo.Block(asn))
	}
	if !eng.Converge(500_000_000) {
		t.Fatal("no convergence")
	}
	return res, New(res.Top, eng), New(res.Top, eng)
}

// group is n identical packets, the unit ForwardN forwards.
type group struct {
	pkt Packet
	n   int64
}

// groupStream builds the flow-group shape the traffic engine emits — many
// packets per (source, destination) — plus source and TTL variants and an
// unroutable destination, injected at the first stub's hub.
func groupStream(res *topogen.Result) (topo.RouterID, []group) {
	top := res.Top
	from := top.AS(res.Stubs[0]).Routers[0]
	var gs []group
	for i, s := range res.Stubs[1:] {
		if i%3 != 0 {
			continue
		}
		dst := top.Router(top.AS(s).Routers[0]).Addr
		gs = append(gs,
			group{Packet{Src: topo.ProductionAddr(res.Stubs[0]), Dst: dst}, 5},
			group{Packet{Src: topo.RouterAddr(res.Stubs[0], 0), Dst: dst}, 1},
			group{Packet{Src: topo.ProductionAddr(res.Stubs[0]), Dst: dst, TTL: 3}, 2})
	}
	gs = append(gs, group{Packet{Dst: topo.RouterAddr(200, 0)}, 3}) // NoRoute
	return from, gs
}

// installRules puts a representative deterministic rule mix on both planes:
// an AS blackhole toward one prefix (the canonical reverse-path failure), a
// directed link drop, and a source-scoped rule.
func installRules(res *topogen.Result, planes ...*Plane) {
	for _, pl := range planes {
		pl.AddFailure(BlackholeASTowards(res.Transit[0], topo.Block(res.Stubs[4])))
		pl.AddFailure(DropASLink(res.Transit[1], res.Transit[2]))
		pl.AddFailure(Rule{AtAS: res.Transit[3], SrcWithin: topo.Block(res.Stubs[0])})
	}
}

// forwardEach is the reference ForwardN is held to: n single Forward calls
// with their fates tallied.
func forwardEach(pl *Plane, from topo.RouterID, g group) Tally {
	var t Tally
	for i := int64(0); i < g.n; i++ {
		t[pl.Forward(from, g.pkt).Reason]++
	}
	return t
}

// assertSeqAligned installs the same fractional-loss rule on both planes,
// at the sending AS so every packet meets it, and replays the stream one
// packet at a time. Verdicts hash (seed, per-packet seq), so any drift in
// the grouped path's numbering shows up as different fates.
func assertSeqAligned(t *testing.T, res *topogen.Result, single, grouped *Plane, from topo.RouterID, gs []group) {
	t.Helper()
	for _, pl := range []*Plane{single, grouped} {
		pl.AddFailure(LossyAS(res.Stubs[0], 0.5, 42))
	}
	for i, g := range gs {
		for c := int64(0); c < g.n; c++ {
			s := single.Forward(from, g.pkt)
			b := grouped.Forward(from, g.pkt)
			if s.Reason != b.Reason {
				t.Fatalf("post-ForwardN group %d packet %d: seq drift (single %v, grouped %v)", i, c, s.Reason, b.Reason)
			}
		}
	}
}

// TestForwardNEquivalence is the committed grouping contract: ForwardN
// tallies exactly what n single Forward calls produce — same fates, same
// obs counters, and the same per-packet sequence numbering.
func TestForwardNEquivalence(t *testing.T) {
	res, single, grouped := twinPlanes(t)
	installRules(res, single, grouped)
	regS, regG := obs.New(), obs.New()
	single.Instrument(regS)
	grouped.Instrument(regG)

	from, gs := groupStream(res)
	fates := map[DropReason]bool{}
	for i, g := range gs {
		want := forwardEach(single, from, g)
		got := grouped.ForwardN(from, g.pkt, g.n)
		if got != want {
			t.Fatalf("group %d (%+v ×%d): ForwardN %v, single %v", i, g.pkt, g.n, got, want)
		}
		for r, c := range got {
			if c > 0 {
				fates[DropReason(r)] = true
			}
		}
	}
	for _, r := range []DropReason{Delivered, NoRoute, Blackhole, TTLExpired} {
		if !fates[r] {
			t.Fatalf("stream never met fate %v; the comparison is too weak", r)
		}
	}
	snapS, snapG := encodeSnapshot(t, regS), encodeSnapshot(t, regG)
	if snapS != snapG {
		t.Fatalf("obs counters diverge:\nsingle:\n%s\ngrouped:\n%s", snapS, snapG)
	}
	assertSeqAligned(t, res, single, grouped, from, gs)
}

// TestForwardNEquivalenceWithProbRules pins the per-packet fallback: with
// a fractional DropProb rule installed, ForwardN must still match the
// single-packet execution (per-packet loss, not per-group loss).
func TestForwardNEquivalenceWithProbRules(t *testing.T) {
	res, single, grouped := twinPlanes(t)
	for _, pl := range []*Plane{single, grouped} {
		pl.AddFailure(LossyAS(res.Transit[0], 0.4, 9))
		pl.AddFailure(LossyAS(res.Transit[2], 0.2, 10))
	}
	from, gs := groupStream(res)
	var total Tally
	for i, g := range gs {
		g.n *= 20
		want := forwardEach(single, from, g)
		got := grouped.ForwardN(from, g.pkt, g.n)
		if got != want {
			t.Fatalf("group %d (%+v ×%d): ForwardN %v, single %v", i, g.pkt, g.n, got, want)
		}
		for r, c := range got {
			total[r] += c
		}
	}
	if total[Delivered] == 0 || total[Blackhole] == 0 {
		t.Fatalf("loss rule not exercised: %v", total)
	}
}

// TestForwardNZeroIsNoop pins that forwarding no packets changes nothing:
// an empty tally, no counter movement, and no sequence numbers consumed.
func TestForwardNZeroIsNoop(t *testing.T) {
	res, single, grouped := twinPlanes(t)
	regS, regG := obs.New(), obs.New()
	single.Instrument(regS)
	grouped.Instrument(regG)
	from, gs := groupStream(res)
	for _, g := range gs {
		if got := grouped.ForwardN(from, g.pkt, 0); got != (Tally{}) {
			t.Fatalf("ForwardN(n=0) tallied %v", got)
		}
	}
	snapS, snapG := encodeSnapshot(t, regS), encodeSnapshot(t, regG)
	if snapS != snapG {
		t.Fatalf("ForwardN(n=0) moved counters:\n%s", snapG)
	}
	assertSeqAligned(t, res, single, grouped, from, gs)
}

// TestForwardNAllocFree pins the allocation-free group walk: once the
// intra-AS path cache, the LPM and the hop scratch are warm, ForwardN
// allocates nothing, with or without the per-packet fallback.
func TestForwardNAllocFree(t *testing.T) {
	res, _, pl := twinPlanes(t)
	installRules(res, pl)
	from, gs := groupStream(res)
	run := func() {
		for _, g := range gs {
			pl.ForwardN(from, g.pkt, g.n)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("warm ForwardN allocates %.1f times per stream, want 0", allocs)
	}
	pl.AddFailure(LossyAS(res.Transit[0], 0.5, 3))
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("warm per-packet ForwardN allocates %.1f times per stream, want 0", allocs)
	}
}

// encodeSnapshot renders a registry snapshot as its canonical Prometheus
// text, the byte-comparison form the obs tests use.
func encodeSnapshot(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var b strings.Builder
	if err := reg.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestIntraPathAliasingContract pins the dataplane.go intraPath contract:
// the returned slice aliases the path cache (no defensive copy), so
// callers — ForwardN's walks included — must never mutate it. The test
// proves both halves: the cache really does hand out one backing array,
// and heavy grouped forwarding leaves the cached contents untouched.
func TestIntraPathAliasingContract(t *testing.T) {
	res, _, pl := twinPlanes(t)
	from, gs := groupStream(res)
	forwardAll := func() {
		for _, g := range gs {
			pl.ForwardN(from, g.pkt, g.n)
		}
	}

	// Warm the cache, snapshot every cached path.
	forwardAll()
	if len(pl.pathCache) == 0 {
		t.Fatal("no intra-AS paths cached")
	}
	type snap struct {
		alias []topo.RouterID
		copy  []topo.RouterID
	}
	snaps := make(map[[2]topo.RouterID]snap, len(pl.pathCache))
	for key, p := range pl.pathCache {
		snaps[key] = snap{alias: p, copy: append([]topo.RouterID(nil), p...)}
	}

	// Re-querying returns the same backing array, not a copy.
	for key, s := range snaps {
		if len(s.alias) == 0 {
			continue
		}
		again := pl.intraPath(key[0], key[1])
		if &again[0] != &s.alias[0] {
			t.Fatalf("intraPath(%v) returned a copy; the contract is aliasing", key)
		}
	}

	// Grouped forwarding only reads the cached paths.
	for i := 0; i < 10; i++ {
		forwardAll()
	}
	for key, s := range snaps {
		if !reflect.DeepEqual(s.alias, s.copy) {
			t.Fatalf("ForwardN mutated cached intraPath(%v): %v, was %v", key, s.alias, s.copy)
		}
	}
}

// TestDropCountersCoverEveryReason guards the drops-by-reason counter
// array against enum growth: every named DropReason must have a registered
// counter after Instrument. The reason count is discovered dynamically
// from the String fallback, so appending a reason without growing the
// planeObs array (or naming it) fails here instead of silently
// undercounting.
func TestDropCountersCoverEveryReason(t *testing.T) {
	n := 0
	for DropReason(n).String() != fmt.Sprintf("dropreason(%d)", n) {
		n++
		if n > 64 {
			t.Fatal("DropReason fallback never reached; String is broken")
		}
	}
	if n < int(ForwardLoop)+1 {
		t.Fatalf("only %d named reasons but ForwardLoop is %d", n, ForwardLoop)
	}
	if len([ForwardLoop + 1]*obs.Counter{}) != n {
		t.Fatalf("planeObs drops array holds %d slots but %d reasons are named; "+
			"grow the array (and Instrument's loop) with the enum", int(ForwardLoop)+1, n)
	}

	_, _, pl := twinPlanes(t)
	reg := obs.New()
	pl.Instrument(reg)
	if pl.obs.drops[Delivered] != nil {
		t.Fatal("Delivered slot must stay nil (delivery is not a drop)")
	}
	for r := NoRoute; int(r) < n; r++ {
		if pl.obs.drops[r] == nil {
			t.Fatalf("reason %v (%d) has no registered drop counter", r, int(r))
		}
	}
}

// TestDropReasonStringRoundTrip mirrors the EventKind.String contract:
// every defined reason has a unique stable name and unknown values render
// as "dropreason(N)".
func TestDropReasonStringRoundTrip(t *testing.T) {
	all := []DropReason{Delivered, NoRoute, Blackhole, TTLExpired, ForwardLoop}
	seen := make(map[string]DropReason, len(all))
	for _, r := range all {
		s := r.String()
		if s == "" || strings.HasPrefix(s, "dropreason(") {
			t.Fatalf("reason %d has no proper name: %q", int(r), s)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("reasons %d and %d share the name %q", int(prev), int(r), s)
		}
		seen[s] = r
	}
	if next := ForwardLoop + 1; next.String() != "dropreason(5)" {
		t.Fatalf("first unknown reason renders %q, want dropreason(5)", next.String())
	}
	for _, r := range []DropReason{17, -2} {
		want := fmt.Sprintf("dropreason(%d)", int(r))
		if got := r.String(); got != want {
			t.Fatalf("DropReason(%d).String() = %q, want %q", int(r), got, want)
		}
	}
}

// TestResultString covers the one-line fate rendering.
func TestResultString(t *testing.T) {
	if got := (&Result{}).String(); got != "delivered" {
		t.Fatalf("empty result renders %q", got)
	}
	r := &Result{
		Reason:     Blackhole,
		Hops:       []Hop{{Router: 1, AS: 1}, {Router: 7, AS: 2}},
		LastAS:     2,
		LastRouter: 7,
	}
	want := "blackhole at AS2 (router 7) after 2 hops"
	if got := r.String(); got != want {
		t.Fatalf("Result.String() = %q, want %q", got, want)
	}
}
