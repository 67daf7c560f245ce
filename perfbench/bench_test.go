package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"icbe"
	"icbe/internal/ir"
	"icbe/internal/progs"
	"icbe/internal/reportjson"
	"icbe/internal/server"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := quantile(append([]float64(nil), xs...), c.q); got != c.want {
			t.Errorf("quantile(1..100, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %g, want 0", got)
	}
}

func TestTenBeyondRule(t *testing.T) {
	// p90 has ten samples beyond it from 100 samples on, never below.
	if got := beyond(100, 0.9); got != 10 {
		t.Errorf("beyond(100, 0.9) = %d, want 10", got)
	}
	if got := beyond(99, 0.9); got != 9 {
		t.Errorf("beyond(99, 0.9) = %d, want 9", got)
	}
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{30, 0, false}, {40, 0.75, true}, {99, 0.75, true}, {100, 0.9, true},
		{199, 0.9, true}, {200, 0.95, true}, {1000, 0.99, true}, {10000, 0.999, true},
	} {
		q, ok := tailQuantile(c.n)
		if q != c.want || ok != c.ok {
			t.Errorf("tailQuantile(%d) = %g, %v; want %g, %v", c.n, q, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, q) < 10 {
			t.Errorf("tailQuantile(%d) = p%g leaves %d samples beyond it", c.n, 100*q, beyond(c.n, q))
		}
	}
}

func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	open := &sample{
		due:      t0,
		enq:      t0.Add(1 * time.Millisecond),
		start:    t0.Add(3 * time.Millisecond), // waited for a free connection
		done:     t0.Add(10 * time.Millisecond),
		insideMS: 5,
	}
	if got := open.latency(); got != 10*time.Millisecond {
		t.Errorf("open-loop latency = %v, want 10ms from the due time", got)
	}
	if got := open.lag(); got != time.Millisecond {
		t.Errorf("generator lag = %v, want 1ms", got)
	}
	if got := open.outsideMS(); math.Abs(got-2) > 1e-9 {
		t.Errorf("outside = %gms, want 2ms (send to last byte minus the server's own time)", got)
	}
	closed := &sample{start: t0, done: t0.Add(7 * time.Millisecond)}
	if got := closed.latency(); got != 7*time.Millisecond {
		t.Errorf("closed-loop latency = %v, want 7ms from the send", got)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "request", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Start: ms(20), End: ms(50)},  // overlaps span 2
		{ID: 4, Parent: 1, Start: ms(90), End: ms(120)}, // runs past its parent
		{ID: 5, Parent: 3, Start: ms(25), End: ms(35)},
		{ID: 6, Name: "sibling", Start: ms(100), End: ms(104)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: ms(50), 2: ms(20), 3: ms(20), 4: ms(30), 5: ms(10), 6: ms(4)}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
}

func TestOptimizerPhasesAreChildren(t *testing.T) {
	rec := &recorder{}
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	id := rec.add("icbe.OptimizeContext", 1, 0, 0, ms(100))
	phases(rec, 1, id, icbe.DriverStats{AnalysisWall: ms(10), ApplyWall: ms(60), VerifyWall: ms(20), CheckWall: ms(25), FoldWall: ms(20)})
	rows := layerRows(rec.spans)
	want := map[string]float64{
		"icbe.OptimizeContext": 10, "analysis": 10, "restructure.apply": 15,
		"interp.verify": 20, "check.check": 25, "fold.pass": 20,
	}
	for _, r := range rows {
		if math.Abs(r.selfMS-want[r.name]) > 1e-9 {
			t.Errorf("%s self = %gms, want %gms", r.name, r.selfMS, want[r.name])
		}
	}
}

func snapshot(completed, cached, runs int64, d reportjson.DriverStats, tiers map[string]int64) *server.StatsSnapshot {
	return &server.StatsSnapshot{Completed: completed, CacheServed: cached, OptimizeRuns: runs, Driver: d, Tiers: tiers}
}

func TestStatsDeltaPerRequest(t *testing.T) {
	before := snapshot(10, 4, 6, reportjson.DriverStats{
		AnalysisWallNS: 1e6, ApplyWallNS: 2e6, VerifyWallNS: 5e5, CheckWallNS: 5e5,
		PairsTotal: 100, Clones: 20, FoldAttempted: 1,
	}, map[string]int64{"full": 10})
	after := snapshot(30, 14, 16, reportjson.DriverStats{
		AnalysisWallNS: 21e6, ApplyWallNS: 52e6, VerifyWallNS: 10.5e6, CheckWallNS: 20.5e6,
		PairsTotal: 900, QueriesReused: 200, Clones: 60, FoldAttempted: 5,
	}, map[string]int64{"full": 30})
	d := delta(before, after)
	if d.computed != 10 {
		t.Fatalf("computed = %g, want 20 completed - 10 cache-served = 10", d.computed)
	}
	if got := d.perComputed(d.analysisNS / 1e6); got != 2 {
		t.Errorf("analysis ms per request = %g, want 2", got)
	}
	if got := d.perComputed((d.applyNS - d.verifyNS - d.checkNS) / 1e6); got != 2 {
		t.Errorf("apply self ms per request = %g, want (50-10-20)/10 = 2", got)
	}
	if got := ratio(d.reused, d.pairs); got != 0.25 {
		t.Errorf("reuse rate = %g, want 200/800", got)
	}
	if got := d.applyAttempts(); got != 26 {
		t.Errorf("apply attempts = %g, want 40 clones - 10 runs - 4 fold attempts", got)
	}

	// The client's counts reconcile with these deltas exactly; one missing
	// 200 or a tier label the server did not count is reported.
	p := &phase{before: before, after: after}
	for i := 0; i < 20; i++ {
		s := &sample{status: 200, tier: "full", cache: "bypass"}
		if i < 10 {
			s.cache = "hit-memory"
		}
		p.samples = append(p.samples, s)
	}
	if bad := p.reconcile(); len(bad) != 0 {
		t.Errorf("matching counts reported %v", bad)
	}
	p.samples[19].tier = "check-only"
	if bad := p.reconcile(); len(bad) != 2 {
		t.Errorf("a mislabelled tier should fail two tier checks, got %v", bad)
	}
	p.samples = p.samples[:19]
	if bad := p.reconcile(); len(bad) == 0 {
		t.Error("a missing response reconciled")
	}
}

func TestZipfDrawsAreDeterministicAndSkewed(t *testing.T) {
	draw := func(seed uint64) []int {
		r := newRng(seed, saltArrivals)
		var z zipf
		var out []int
		for i := 0; i < 5000; i++ {
			n := 1 + i/10 // the population grows while drawing
			k := z.draw(r, n)
			if k < 0 || k >= n {
				t.Fatalf("draw %d out of [0,%d)", k, n)
			}
			out = append(out, k)
		}
		return out
	}
	a, b := draw(7), draw(7)
	if !slices.Equal(a, b) {
		t.Fatal("equal seeds gave different Zipf draws")
	}
	if slices.Equal(a, draw(8)) {
		t.Fatal("different seeds gave identical Zipf draws")
	}
	counts := make(map[int]int)
	for _, k := range a {
		counts[k]++
	}
	if !(counts[0] > counts[1] && counts[1] > counts[10]) {
		t.Errorf("ranks are not Zipf-skewed: %d, %d, %d", counts[0], counts[1], counts[10])
	}
}

func TestStreamsAreDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, b := w.build(w, 3, 2), w.build(w, 3, 2)
		c := w.build(w, 4, 2)
		for _, tr := range []*traffic{a, b, c} {
			if err := tr.prepare(); err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
		}
		n := a.n
		if n == 0 {
			n = 3 * len(a.corpus)
		}
		same, differs := true, false
		for i := 0; i < n; i++ {
			ra, rb := a.next(i), b.next(i)
			if ra != rb || !bytes.Equal(a.body(ra), b.body(rb)) {
				same = false
			}
			if i < c.n || c.n == 0 {
				if rc := c.next(i); rc != ra || !bytes.Equal(c.body(rc), a.body(ra)) {
					differs = true
				}
			}
		}
		if !same {
			t.Errorf("%s: equal seeds gave different streams", w.name)
		}
		if !differs {
			t.Errorf("%s: seeds 3 and 4 gave the same stream", w.name)
		}
	}
}

func TestBlockStreamCoversCorpus(t *testing.T) {
	next := blockStream(5, 13)
	for b := 0; b < 4; b++ {
		seen := make(map[int]bool)
		for i := 0; i < 13; i++ {
			seen[next(b*13+i).prog] = true
		}
		if len(seen) != 13 {
			t.Errorf("block %d sent %d distinct programs, want all 13", b, len(seen))
		}
	}
}

func TestCacheRepeatMix(t *testing.T) {
	w := workloadByName("cache-repeat")
	tr := w.build(w, 1, 20)
	counts := make(map[reqClass]int)
	var last time.Duration
	for i := 0; i < tr.n; i++ {
		r := tr.next(i)
		counts[r.class]++
		if r.due < last {
			t.Fatal("arrivals out of order")
		}
		last = r.due
	}
	if got := float64(tr.n) / 20; math.Abs(got-w.rate)/w.rate > 0.1 {
		t.Errorf("arrival rate %.1f/s, want about %g/s", got, w.rate)
	}
	for c, want := range map[reqClass]float64{classExact: 0.70, classVariant: 0.15, classNew: 0.15} {
		if got := float64(counts[c]) / float64(tr.n); math.Abs(got-want) > 0.03 {
			t.Errorf("%s share %.3f, want about %.2f", c, got, want)
		}
	}
}

func TestLayoutVariantKeepsHashAndLines(t *testing.T) {
	for _, wl := range progs.All() {
		a, err := icbe.Compile(wl.Source)
		if err != nil {
			t.Fatal(err)
		}
		src := variantSource(wl.Source, 17)
		if src == wl.Source {
			t.Fatal("variant did not change the bytes")
		}
		b, err := icbe.Compile(src)
		if err != nil {
			t.Fatalf("%s variant: %v", wl.Name, err)
		}
		if ir.HashProgram(a.Graph()).Sum != ir.HashProgram(b.Graph()).Sum {
			t.Errorf("%s: variant changed the canonical hash", wl.Name)
		}
		// The exact encoding carries every node's source line.
		if !bytes.Equal(ir.EncodeProgram(a.Graph()), ir.EncodeProgram(b.Graph())) {
			t.Errorf("%s: variant changed the encoding (line numbers)", wl.Name)
		}
	}
}

func TestParseCPUTime(t *testing.T) {
	stat := "4242 (icbe serve) S 1 4242 4242 0 -1 4194560 900 0 0 0 250 75 0 0 20 0 9 0 100 1000 200 18446744073709551615"
	got, err := parseCPUTime(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3250 * time.Millisecond; got != want {
		t.Errorf("cpu = %v, want %v (325 ticks)", got, want)
	}
	if _, err := parseCPUTime("garbage"); err == nil {
		t.Error("malformed stat line parsed")
	}
}

// TestBenchmarkJSONMatchesOutput keeps BENCHMARK.json and the metrics the
// benchmark prints in step: same workloads, and with -trace 0 and -trace 1
// exactly the listed metrics with the listed units.
func TestBenchmarkJSONMatchesOutput(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var specNames []string
	for _, w := range spec.Workloads {
		specNames = append(specNames, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(specNames, ",") {
		t.Errorf("workloads %v, BENCHMARK.json lists %v", names, specNames)
	}

	empty := &server.StatsSnapshot{}
	p := &phase{w: workloads[0], before: empty, after: empty}
	m := p.endToEnd(1)
	same := func(what string, got *metricSet, want []entry) {
		if len(got.names) != len(want) {
			t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", what, len(got.names), len(want))
		}
		for _, e := range want {
			if v, ok := got.values[e.Name]; !ok || v.Unit != e.Unit {
				t.Errorf("%s: BENCHMARK.json lists %s in %s, the benchmark reports %+v", what, e.Name, e.Unit, v)
			}
		}
	}
	same("end_to_end", m.pick(func(n string) bool { return !gateMetric[n] }), spec.EndToEnd)
	layers := m.pick(func(n string) bool { return gateMetric[n] })
	p.layers(layers)
	(&tracedRun{rec: newRecorder()}).metrics(layers, 1)
	same("per_layer", layers, spec.PerLayer)
}

// TestLoopsReconcileInProcess drives both loops against the real handler in
// process: every response passes the checks and /stats reconciles with the
// load generator's counts.
func TestLoopsReconcileInProcess(t *testing.T) {
	for _, name := range []string{"paper-mix", "cache-repeat"} {
		w := workloadByName(name)
		tr := w.build(w, 1, 0.5)
		if err := tr.prepare(); err != nil {
			t.Fatal(err)
		}
		cfg := server.Config{CacheEntries: w.cacheEntries}
		if w.store {
			cfg.StoreDir = t.TempDir()
		}
		svc := server.New(cfg)
		ts := httptest.NewServer(svc.Handler())
		c := newClient()
		ck := newChecker(tr)
		before := svc.Stats()
		var samples []*sample
		var wall time.Duration
		if w.open {
			samples, wall = openLoop(c, ts.URL, tr, ck.store)
		} else {
			samples, wall = closedLoop(c, ts.URL, tr, ck.store, 500*time.Millisecond)
		}
		after := svc.Stats()
		c.CloseIdleConnections()
		ts.Close()
		if err := svc.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		if len(samples) == 0 || wall <= 0 {
			t.Fatalf("%s: %d samples in %v", name, len(samples), wall)
		}
		for _, s := range samples {
			if ck.check(s); !s.ok() {
				t.Errorf("%s: %s", name, s.bad)
			}
		}
		p := &phase{w: w, samples: samples, wall: wall, before: &before, after: &after}
		for _, bad := range p.reconcile() {
			t.Errorf("%s: %s", name, bad)
		}
	}
}
