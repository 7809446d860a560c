package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// spanNames are the layer boundaries the traced run wraps. Every one is
// reported as span.<name>.self_s on every workload, zero where the
// workload never crosses that boundary.
var spanNames = []string{
	"setup",
	"topogen.Generate",
	"lifeguard.AssembleNetwork",
	"lifeguard.SessionStart",
	"bgp.Converge",
	"bgp.Announce",
	"simclock.RunFor",
	"traffic.RunEpoch",
	"monitor.OnOutage",
	"remedy.OnUnpoison",
	"op",
}

// span is one timed call into a layer. Start and End are seconds since
// the tracer started; Parent indexes the enclosing span (-1 for a root);
// Group names the set-up repetition or operation the span belongs to.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Parent int     `json:"parent"`
	Group  string  `json:"group"`
}

// tracer records spans and per-layer samples from the benchmark's own
// code. A nil or disabled tracer records nothing, so the untraced run
// executes the same calls with one branch of overhead per boundary.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	open  []int
	group string

	// vals and samples accumulate per-layer metrics by name.
	vals    map[string]float64
	samples map[string][]float64

	profile bytes.Buffer
}

func newTracer(on bool) *tracer {
	return &tracer{
		on:      on,
		t0:      time.Now(),
		vals:    map[string]float64{},
		samples: map[string][]float64{},
	}
}

func (t *tracer) enabled() bool { return t != nil && t.on }

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name string) int {
	if !t.enabled() {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{
		Name: name, Start: time.Since(t.t0).Seconds(), Parent: parent, Group: t.group,
	})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

// end closes the span begin returned and reports its duration in seconds.
func (t *tracer) end(i int) float64 {
	if i < 0 {
		return 0
	}
	sp := &t.spans[i]
	sp.End = time.Since(t.t0).Seconds()
	t.open = t.open[:len(t.open)-1]
	return sp.End - sp.Start
}

// do runs fn inside a span and returns the span's duration in seconds
// (0 when tracing is off).
func (t *tracer) do(name string, fn func()) float64 {
	i := t.begin(name)
	fn()
	return t.end(i)
}

func (t *tracer) add(name string, v float64) {
	if t.enabled() {
		t.vals[name] += v
	}
}

func (t *tracer) set(name string, v float64) {
	if t.enabled() {
		t.vals[name] = v
	}
}

func (t *tracer) max(name string, v float64) {
	if t.enabled() && v > t.vals[name] {
		t.vals[name] = v
	}
}

func (t *tracer) sample(name string, v float64) {
	if t.enabled() {
		t.samples[name] = append(t.samples[name], v)
	}
}

// selfTimes sums, per span name, each span's duration minus the time its
// direct children cover. Spans nest strictly (the simulation is single
// threaded), so children never overlap.
func (t *tracer) selfTimes() map[string]float64 {
	child := make([]float64, len(t.spans))
	for _, sp := range t.spans {
		if sp.Parent >= 0 {
			child[sp.Parent] += sp.End - sp.Start
		}
	}
	self := map[string]float64{}
	for i, sp := range t.spans {
		self[sp.Name] += sp.End - sp.Start - child[i]
	}
	return self
}

// writeSpans writes one JSON span per line, with its self time, to path.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	child := make([]float64, len(t.spans))
	for _, sp := range t.spans {
		if sp.Parent >= 0 {
			child[sp.Parent] += sp.End - sp.Start
		}
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, sp := range t.spans {
		rec := struct {
			span
			ID   int     `json:"id"`
			Self float64 `json:"self"`
		}{sp, i, sp.End - sp.Start - child[i]}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// startProfile starts the CPU profile the traced run folds into
// per-package shares; runPlan stops it.
func (t *tracer) startProfile() error {
	if err := pprof.StartCPUProfile(&t.profile); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	return nil
}

// memDelta is the Go runtime's allocation and GC activity over a phase.
type memDelta struct {
	mallocs uint64
	bytes   uint64
	gcs     uint32
	pauseNs uint64
}

func (d *memDelta) add(o memDelta) {
	d.mallocs += o.mallocs
	d.bytes += o.bytes
	d.gcs += o.gcs
	d.pauseNs += o.pauseNs
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func memSince(a runtime.MemStats) memDelta {
	b := readMem()
	return memDelta{
		mallocs: b.Mallocs - a.Mallocs,
		bytes:   b.TotalAlloc - a.TotalAlloc,
		gcs:     b.NumGC - a.NumGC,
		pauseNs: b.PauseTotalNs - a.PauseTotalNs,
	}
}
