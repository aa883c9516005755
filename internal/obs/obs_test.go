package obs

import (
	"sort"
	"strings"
	"sync"
	"testing"
	"unicode/utf8"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.count")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d", c.Value())
	}
	if r.Counter("a.count") != c {
		t.Error("counter not reused by name")
	}
	g := r.Gauge("a.level")
	g.Set(7)
	g.Add(-2)
	if g.Value() != 5 {
		t.Errorf("gauge = %d", g.Value())
	}
}

func TestNilRegistryAndInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x", SizeBounds)
	l := r.SlowLog()
	c.Inc()
	c.Add(3)
	g.Set(9)
	g.Add(1)
	h.Observe(5)
	sw := h.Start()
	if sw.Stop() > 1e12 {
		t.Error("nil-histogram stopwatch still measures real time")
	}
	l.Record(1, "src")
	if c.Value() != 0 || g.Value() != 0 {
		t.Error("nil instruments recorded something")
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms)+len(snap.Slow) != 0 {
		t.Error("nil registry snapshot not empty")
	}
	if snap.Counter("x") != 0 {
		t.Error("absent counter lookup")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []uint64{10, 100})
	for _, v := range []uint64{1, 10, 11, 100, 101, 5000} {
		h.Observe(v)
	}
	hv, ok := r.Snapshot().Histogram("h")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	want := []uint64{2, 2, 2} // ≤10, ≤100, +Inf
	for i, n := range want {
		if hv.Buckets[i] != n {
			t.Errorf("bucket %d = %d, want %d", i, hv.Buckets[i], n)
		}
	}
	if hv.Count != 6 || hv.Sum != 1+10+11+100+101+5000 {
		t.Errorf("count=%d sum=%d", hv.Count, hv.Sum)
	}
	if m := hv.Mean(); m < 800 || m > 900 {
		t.Errorf("mean = %f", m)
	}
}

func TestSlowLogBoundedRing(t *testing.T) {
	l := &SlowLog{cap: 3}
	for i := 0; i < 10; i++ {
		l.Record(uint64(i), "q")
	}
	es := l.entries()
	if len(es) != 3 {
		t.Fatalf("len = %d", len(es))
	}
	if es[0].Seq != 8 || es[2].Seq != 10 {
		t.Errorf("ring = %+v", es)
	}
}

// TestSlowLogCutsAtRuneStart: a long source is cut before the character
// that straddles the limit, not through it.
func TestSlowLogCutsAtRuneStart(t *testing.T) {
	l := &SlowLog{cap: 2}
	fits := strings.Repeat("x", slowSourceLimit)
	straddles := strings.Repeat("x", slowSourceLimit-1) + "é!"
	l.Record(1, fits+"é")
	l.Record(2, straddles)
	es := l.entries()
	if es[0].Source != fits+"…" || es[1].Source != straddles[:slowSourceLimit-1]+"…" {
		t.Errorf("entries = %q, %q", es[0].Source, es[1].Source)
	}
	for _, e := range es {
		if !utf8.ValidString(e.Source) {
			t.Errorf("entry %d is not valid UTF-8: %q", e.Seq, e.Source)
		}
	}
}

// wellFormed checks the snapshot invariants the wire and the ledger rely
// on: names strictly ascending within each section, and every histogram's
// Count equal to the sum of its buckets (no torn histograms).
func wellFormed(t *testing.T, s *Snapshot) {
	t.Helper()
	if !sort.SliceIsSorted(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name }) {
		t.Error("counters not sorted")
	}
	if !sort.SliceIsSorted(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name }) {
		t.Error("gauges not sorted")
	}
	if !sort.SliceIsSorted(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name }) {
		t.Error("histograms not sorted")
	}
	for _, h := range s.Histograms {
		if len(h.Buckets) != len(h.Bounds)+1 {
			t.Errorf("%s: %d buckets for %d bounds", h.Name, len(h.Buckets), len(h.Bounds))
		}
		var total uint64
		for _, n := range h.Buckets {
			total += n
		}
		if total != h.Count {
			t.Errorf("%s: torn histogram: count=%d Σbuckets=%d", h.Name, h.Count, total)
		}
	}
}

// TestSnapshotDeterminismUnderConcurrentIncrements takes snapshots while
// writers hammer every instrument kind: each snapshot must be well-formed
// (sorted keys, untorn histograms), and a quiesced registry must render
// byte-identically on repeated snapshots.
func TestSnapshotDeterminismUnderConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("w.count")
			g := r.Gauge("w.level")
			h := r.Histogram("w.lat", SizeBounds)
			for i := uint64(0); i < 20000; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(i % 2048)
				// Instrument creation races with snapshots too.
				r.Counter("w.count").Inc()
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		wellFormed(t, r.Snapshot())
	}
	wg.Wait()
	a, b := r.Snapshot(), r.Snapshot()
	wellFormed(t, a)
	if a.String() != b.String() {
		t.Error("quiesced registry renders differently across snapshots")
	}
	if a.Counter("w.count") == 0 {
		t.Error("no increments recorded")
	}
}

func TestSnapshotLookupHelpers(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Add(2)
	r.Counter("a").Add(1)
	r.Gauge("g").Set(-3)
	s := r.Snapshot()
	if s.Counter("a") != 1 || s.Counter("b") != 2 || s.Counter("zz") != 0 {
		t.Errorf("counter lookups: %+v", s.Counters)
	}
	if s.Gauge("g") != -3 {
		t.Errorf("gauge lookup: %+v", s.Gauges)
	}
	if _, ok := s.Histogram("none"); ok {
		t.Error("phantom histogram")
	}
}
