// Package obs is the engine's observability layer: a dependency-free
// metrics registry of counters, gauges and bounded-bucket histograms, plus
// a small slow-query log. The paper's Object Manager is a multi-user
// server whose behaviour — optimistic aborts (§6 Transaction Manager),
// group safe-writes (§6 Commit Manager), index vs scan crossovers (§4.3) —
// is only credible if it can be watched under load; this package is the
// window. Every subsystem (txn, store, loom, directory maintenance,
// executor, wire) registers its instruments here, and snapshots surface
// through gemstone.DB.Stats(), the OpStats wire operation, and the
// cmd/gemstone -statsevery periodic dump.
//
// Design constraints:
//
//   - Lock-cheap on the hot path: instruments are single atomic words (or
//     arrays of them); recording never takes the registry lock. The
//     registry lock is touched only at instrument creation and snapshot
//     time.
//   - Nil-safe: every instrument method is a no-op on a nil receiver, and
//     a nil *Registry hands out nil instruments. Subsystems can therefore
//     instrument unconditionally; standalone uses (unit tests, tools) that
//     never attach a registry pay nothing.
//   - Deterministic snapshots: Snapshot returns name-sorted slices, never
//     maps, so rendering, JSON encoding over the wire, and ledger output
//     are byte-stable for the same counter state (the detmap invariant
//     gslint enforces over this package).
//   - Untorn histograms: a histogram's total count is derived from its
//     bucket counts at snapshot time, so Count == Σ Buckets holds in every
//     snapshot no matter how many observations race with it.
//
// The wallclock analyzer forbids time.Now in the kernel packages
// (transaction time must come from the commit clock); obs is deliberately
// outside that scope and owns the only stopwatch. Kernel code measures a
// duration by calling (*Histogram).Start / Stopwatch.Stop, which never
// feeds wall-clock time into committed state — it only buckets it.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. No-op on a nil counter.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous level (live sessions, open connections).
type Gauge struct {
	v atomic.Int64
}

// Set stores the level. No-op on a nil gauge.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the level by d. No-op on a nil gauge.
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Value returns the current level (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram buckets observed values against a fixed ascending list of
// inclusive upper bounds, with an implicit +Inf bucket at the end. The
// bounds are fixed at creation, so recording is a binary search plus one
// atomic add — no allocation, no lock.
type Histogram struct {
	bounds  []uint64 // ascending inclusive upper bounds
	buckets []atomic.Uint64
	sum     atomic.Uint64
}

func newHistogram(bounds []uint64) *Histogram {
	b := append([]uint64(nil), bounds...)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{bounds: b, buckets: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value. No-op on a nil histogram.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.buckets[i].Add(1)
	h.sum.Add(v)
}

// Stopwatch measures one interval for a histogram of nanosecond values.
type Stopwatch struct {
	h     *Histogram
	start time.Time
}

// Start begins timing an interval destined for this histogram. Safe on a
// nil histogram: the returned stopwatch still measures (so Stop's return
// value is usable) but records nowhere.
func (h *Histogram) Start() Stopwatch {
	return Stopwatch{h: h, start: time.Now()}
}

// Stop observes and returns the elapsed nanoseconds.
func (sw Stopwatch) Stop() uint64 {
	d := uint64(time.Since(sw.start))
	sw.h.Observe(d)
	return d
}

// LatencyBounds is the standard nanosecond bucket ladder for latency
// histograms: 1µs to ~4s, quadrupling.
var LatencyBounds = []uint64{
	1_000, 4_000, 16_000, 64_000, 256_000,
	1_000_000, 4_000_000, 16_000_000, 64_000_000, 256_000_000,
	1_000_000_000, 4_000_000_000,
}

// SizeBounds is the standard bucket ladder for small cardinalities (group
// sizes, spin counts): powers of two up to 1024.
var SizeBounds = []uint64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// SlowEntry is one record of the slow-query log.
type SlowEntry struct {
	Seq    uint64 // monotonically increasing record number
	DurNS  uint64
	Source string // the OPAL source block (possibly truncated)
}

// slowSourceLimit bounds the stored source text per entry.
const slowSourceLimit = 512

// SlowLog is a bounded ring of the most recent slow operations.
type SlowLog struct {
	mu   sync.Mutex // guards seq, ring
	cap  int
	seq  uint64
	ring []SlowEntry
}

// Record appends an entry, evicting the oldest past capacity. No-op on a
// nil log.
func (l *SlowLog) Record(durNS uint64, source string) {
	if l == nil {
		return
	}
	if len(source) > slowSourceLimit {
		cut := slowSourceLimit // back off to a rune start, so no character is split
		for cut > slowSourceLimit-utf8.UTFMax && !utf8.RuneStart(source[cut]) {
			cut--
		}
		source = source[:cut] + "…"
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	l.ring = append(l.ring, SlowEntry{Seq: l.seq, DurNS: durNS, Source: source})
	if len(l.ring) > l.cap {
		l.ring = l.ring[len(l.ring)-l.cap:]
	}
}

// entries returns a copy, oldest first.
func (l *SlowLog) entries() []SlowEntry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]SlowEntry(nil), l.ring...)
}

// slowLogCap is the retained slow-query window.
const slowLogCap = 32

// Registry holds every instrument by name. The zero registry must not be
// used; a nil *Registry is valid everywhere and disables instrumentation.
type Registry struct {
	mu       sync.Mutex // guards counters, gauges, hists
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	slow     *SlowLog
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		slow:     &SlowLog{cap: slowLogCap},
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil registry
// returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use (later calls reuse the existing instrument and
// ignore bounds). A nil registry returns a nil (no-op) histogram.
func (r *Registry) Histogram(name string, bounds []uint64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// SlowLog returns the registry's slow-operation log (nil for a nil
// registry).
func (r *Registry) SlowLog() *SlowLog {
	if r == nil {
		return nil
	}
	return r.slow
}

// CounterValue is one counter in a snapshot.
type CounterValue struct {
	Name  string
	Value uint64
}

// GaugeValue is one gauge in a snapshot.
type GaugeValue struct {
	Name  string
	Value int64
}

// HistogramValue is one histogram in a snapshot. Count is derived from
// Buckets at snapshot time, so Count == Σ Buckets always holds.
type HistogramValue struct {
	Name    string
	Count   uint64
	Sum     uint64
	Bounds  []uint64 // ascending inclusive upper bounds
	Buckets []uint64 // len(Bounds)+1; last is the +Inf bucket
}

// Mean returns the average observed value (0 when empty).
func (h HistogramValue) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Snapshot is a point-in-time, name-sorted copy of every instrument.
// Slices, not maps, so encoding and rendering are deterministic.
type Snapshot struct {
	Counters   []CounterValue
	Gauges     []GaugeValue
	Histograms []HistogramValue
	Slow       []SlowEntry // oldest first
}

// Snapshot captures the current state of every instrument. Safe under
// concurrent recording; a nil registry yields an empty snapshot.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{}
	if r == nil {
		return s
	}
	r.mu.Lock()
	cnames := make([]string, 0, len(r.counters))
	for name := range r.counters {
		cnames = append(cnames, name)
	}
	gnames := make([]string, 0, len(r.gauges))
	for name := range r.gauges {
		gnames = append(gnames, name)
	}
	hnames := make([]string, 0, len(r.hists))
	for name := range r.hists {
		hnames = append(hnames, name)
	}
	sort.Strings(cnames)
	sort.Strings(gnames)
	sort.Strings(hnames)
	counters := make([]*Counter, len(cnames))
	for i, name := range cnames {
		counters[i] = r.counters[name]
	}
	gauges := make([]*Gauge, len(gnames))
	for i, name := range gnames {
		gauges[i] = r.gauges[name]
	}
	hists := make([]*Histogram, len(hnames))
	for i, name := range hnames {
		hists[i] = r.hists[name]
	}
	r.mu.Unlock()

	s.Counters = make([]CounterValue, len(cnames))
	for i, name := range cnames {
		s.Counters[i] = CounterValue{Name: name, Value: counters[i].Value()}
	}
	s.Gauges = make([]GaugeValue, len(gnames))
	for i, name := range gnames {
		s.Gauges[i] = GaugeValue{Name: name, Value: gauges[i].Value()}
	}
	s.Histograms = make([]HistogramValue, len(hnames))
	for i, name := range hnames {
		h := hists[i]
		hv := HistogramValue{
			Name:    name,
			Sum:     h.sum.Load(),
			Bounds:  append([]uint64(nil), h.bounds...),
			Buckets: make([]uint64, len(h.buckets)),
		}
		for j := range h.buckets {
			n := h.buckets[j].Load()
			hv.Buckets[j] = n
			hv.Count += n
		}
		s.Histograms[i] = hv
	}
	s.Slow = r.slow.entries()
	return s
}

// Counter returns the value of the named counter (0 if absent).
func (s *Snapshot) Counter(name string) uint64 {
	i := sort.Search(len(s.Counters), func(i int) bool { return s.Counters[i].Name >= name })
	if i < len(s.Counters) && s.Counters[i].Name == name {
		return s.Counters[i].Value
	}
	return 0
}

// Gauge returns the value of the named gauge (0 if absent).
func (s *Snapshot) Gauge(name string) int64 {
	i := sort.Search(len(s.Gauges), func(i int) bool { return s.Gauges[i].Name >= name })
	if i < len(s.Gauges) && s.Gauges[i].Name == name {
		return s.Gauges[i].Value
	}
	return 0
}

// Histogram returns the named histogram value.
func (s *Snapshot) Histogram(name string) (HistogramValue, bool) {
	i := sort.Search(len(s.Histograms), func(i int) bool { return s.Histograms[i].Name >= name })
	if i < len(s.Histograms) && s.Histograms[i].Name == name {
		return s.Histograms[i], true
	}
	return HistogramValue{}, false
}

// String renders the snapshot as an aligned text table (the /stats and
// -statsevery output format).
func (s *Snapshot) String() string {
	var b strings.Builder
	if len(s.Counters) > 0 {
		b.WriteString("counters:\n")
		for _, c := range s.Counters {
			fmt.Fprintf(&b, "  %-34s %d\n", c.Name, c.Value)
		}
	}
	if len(s.Gauges) > 0 {
		b.WriteString("gauges:\n")
		for _, g := range s.Gauges {
			fmt.Fprintf(&b, "  %-34s %d\n", g.Name, g.Value)
		}
	}
	if len(s.Histograms) > 0 {
		b.WriteString("histograms:\n")
		for _, h := range s.Histograms {
			fmt.Fprintf(&b, "  %-34s count=%d mean=%.0f", h.Name, h.Count, h.Mean())
			for i, n := range h.Buckets {
				if n == 0 {
					continue
				}
				if i < len(h.Bounds) {
					fmt.Fprintf(&b, " ≤%d:%d", h.Bounds[i], n)
				} else {
					fmt.Fprintf(&b, " inf:%d", n)
				}
			}
			b.WriteString("\n")
		}
	}
	if len(s.Slow) > 0 {
		b.WriteString("slow queries:\n")
		for _, e := range s.Slow {
			src := e.Source
			if i := strings.IndexByte(src, '\n'); i >= 0 {
				src = src[:i] + "…"
			}
			fmt.Fprintf(&b, "  [%d] %.1fms  %s\n", e.Seq, float64(e.DurNS)/1e6, src)
		}
	}
	if b.Len() == 0 {
		return "(no instruments)\n"
	}
	return b.String()
}
