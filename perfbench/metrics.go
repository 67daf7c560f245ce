package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"icbe/internal/server"
)

// quantile is the nearest-rank q-quantile of xs (which it sorts): the
// smallest sample with at least a q share of the samples at or below it.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

// beyond is the number of samples that lie above the nearest-rank
// q-quantile of n samples.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - max(1, int(math.Ceil(q*float64(n))))
}

// tailQuantiles are the tail percentiles a report may quote, highest first.
var tailQuantiles = []float64{0.999, 0.99, 0.95, 0.9, 0.75}

// tailQuantile is the highest tail percentile with at least ten samples
// beyond it, or false when even p75 lacks them.
func tailQuantile(n int) (float64, bool) {
	for _, q := range tailQuantiles {
		if beyond(n, q) >= 10 {
			return q, true
		}
	}
	return 0, false
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet keeps metrics in the order they were added, for the table.
type metricSet struct {
	names  []string
	values map[string]metric
}

func (m *metricSet) set(name string, v float64, unit string) {
	if m.values == nil {
		m.values = make(map[string]metric)
	}
	if _, ok := m.values[name]; !ok {
		m.names = append(m.names, name)
	}
	m.values[name] = metric{Value: v, Unit: unit}
}

// pick returns the metrics whose names keep accepts, in order.
func (m *metricSet) pick(keep func(string) bool) *metricSet {
	out := &metricSet{}
	for _, n := range m.names {
		if keep(n) {
			out.set(n, m.values[n].Value, m.values[n].Unit)
		}
	}
	return out
}

// gateMetric names the end-to-end metrics that every run prints in its
// end-to-end row but reports, in the JSON line, with the per-layer metrics:
// the three ratios are zero or near zero on a healthy commit, and peak RSS
// depends on where GC cycles fall, so none of them can carry a regression
// bound.
var gateMetric = map[string]bool{
	"limit_miss_ratio": true, "error_ratio": true, "degraded_ratio": true, "peak_rss_mb": true,
}

func (m *metricSet) table(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for _, n := range m.names {
		v := m.values[n]
		fmt.Fprintf(&b, "  %-40s %14.4f %s\n", n, v.Value, v.Unit)
	}
	return b.String()
}

// row renders the metrics on one line, for comparing workloads.
func (m *metricSet) row(label string) string {
	var b strings.Builder
	b.WriteString(label)
	for _, n := range m.names {
		fmt.Fprintf(&b, " | %s %.4g %s", n, m.values[n].Value, m.values[n].Unit)
	}
	return b.String()
}

// phase is one measured stretch of traffic against one server.
type phase struct {
	w       *workload
	samples []*sample
	wall    time.Duration
	// before and after bracket the phase's /stats; cpu is the server's
	// utime+stime over the phase and rssMB its VmHWM at the end.
	before, after *server.StatsSnapshot
	cpu           time.Duration
	rssMB         float64
}

// counts tallies a phase's samples the way /stats should see them.
type counts struct {
	attempted, ok, status200, shed, cacheServed int
	tiers                                       map[string]int64
}

func (p *phase) counts() counts {
	c := counts{attempted: len(p.samples), tiers: make(map[string]int64)}
	for _, s := range p.samples {
		switch s.status {
		case 200:
			c.status200++
			c.tiers[s.tier]++
			if s.cacheServed() {
				c.cacheServed++
			}
		case 429, 503:
			c.shed++
		}
		if s.ok() {
			c.ok++
		}
	}
	return c
}

// latenciesMS returns f over the samples that passed every check.
func (p *phase) latenciesMS(f func(*sample) float64, keep func(*sample) bool) []float64 {
	var xs []float64
	for _, s := range p.samples {
		if s.ok() && (keep == nil || keep(s)) {
			xs = append(xs, f(s))
		}
	}
	return xs
}

func (s *sample) latencyMS() float64 { return ms(s.latency()) }

// endToEnd computes the eleven end-to-end metrics of a phase.
func (p *phase) endToEnd(setupS float64) *metricSet {
	c := p.counts()
	lat := p.latenciesMS((*sample).latencyMS, nil)
	misses := c.attempted - c.ok
	var degraded, optimized, before, after int
	for _, s := range p.samples {
		if s.status != 200 {
			continue
		}
		if s.tier != "full" {
			degraded++
		}
		optimized += s.optimized
		before += s.opsBefore
		after += s.opsAfter
	}
	for _, x := range lat {
		if x > p.w.limitMS {
			misses++
		}
	}
	m := &metricSet{}
	m.set("latency_p50_ms", quantile(lat, 0.5), "ms")
	m.set("latency_p90_ms", quantile(lat, 0.9), "ms")
	m.set("throughput_rps", ratio(float64(c.ok), p.wall.Seconds()), "req/s")
	m.set("limit_miss_ratio", ratio(float64(misses), float64(c.attempted)), "ratio")
	m.set("error_ratio", ratio(float64(c.attempted-c.ok), float64(c.attempted)), "ratio")
	m.set("degraded_ratio", ratio(float64(degraded), float64(c.attempted)), "ratio")
	m.set("cpu_ms_per_request", ratio(ms(p.cpu), float64(c.status200)), "ms")
	m.set("peak_rss_mb", p.rssMB, "MiB")
	m.set("setup_s", setupS, "s")
	m.set("eliminated_per_request", ratio(float64(optimized), float64(c.status200)), "count")
	m.set("code_growth_ratio", ratio(float64(after), float64(before)), "ratio")
	return m
}

// reconcile checks the server's /stats deltas over the phase against the
// load generator's own counts.
func (p *phase) reconcile() []string {
	c := p.counts()
	b, a := p.before, p.after
	var bad []string
	check := func(what string, server, client int64) {
		if server != client {
			bad = append(bad, fmt.Sprintf("/stats %s delta %d, client counted %d", what, server, client))
		}
	}
	check("completed", a.Completed-b.Completed, int64(c.status200))
	check("shed_total", a.ShedTotal-b.ShedTotal, int64(c.shed))
	check("cache_served", a.CacheServed-b.CacheServed, int64(c.cacheServed))
	check("driver.sccp_disagreements", int64(a.Driver.SCCPDisagreements-b.Driver.SCCPDisagreements), 0)
	tiers := make(map[string]bool)
	for k := range a.Tiers {
		tiers[k] = true
	}
	for k := range c.tiers {
		tiers[k] = true
	}
	for k := range tiers {
		check("tiers["+k+"]", a.Tiers[k]-b.Tiers[k], c.tiers[k])
	}
	sort.Strings(bad)
	return bad
}

// statsDelta is the driver aggregate over a phase, per computed (not
// cache-served) request.
type statsDelta struct {
	computed                               float64
	analysisNS, applyNS, verifyNS, checkNS float64
	foldNS                                 float64
	pairs, reused, analyses, reanalyses    float64
	rounds, clones, runs                   float64
	verifyRuns, checkRuns                  float64
	foldAttempted, foldApplied             float64
	storeFailures                          float64
}

func delta(b, a *server.StatsSnapshot) statsDelta {
	d := statsDelta{
		computed:      float64((a.Completed - b.Completed) - (a.CacheServed - b.CacheServed)),
		analysisNS:    float64(a.Driver.AnalysisWallNS - b.Driver.AnalysisWallNS),
		applyNS:       float64(a.Driver.ApplyWallNS - b.Driver.ApplyWallNS),
		verifyNS:      float64(a.Driver.VerifyWallNS - b.Driver.VerifyWallNS),
		checkNS:       float64(a.Driver.CheckWallNS - b.Driver.CheckWallNS),
		foldNS:        float64(a.Driver.FoldWallNS - b.Driver.FoldWallNS),
		pairs:         float64(a.Driver.PairsTotal - b.Driver.PairsTotal),
		reused:        float64(a.Driver.QueriesReused - b.Driver.QueriesReused),
		analyses:      float64(a.Driver.Analyses - b.Driver.Analyses),
		reanalyses:    float64(a.Driver.Reanalyses - b.Driver.Reanalyses),
		rounds:        float64(a.Driver.Rounds - b.Driver.Rounds),
		clones:        float64(a.Driver.Clones - b.Driver.Clones),
		runs:          float64(a.OptimizeRuns - b.OptimizeRuns),
		verifyRuns:    float64(a.Driver.VerifyRuns - b.Driver.VerifyRuns),
		checkRuns:     float64(a.Driver.CheckRuns - b.Driver.CheckRuns),
		foldAttempted: float64(a.Driver.FoldAttempted - b.Driver.FoldAttempted),
		foldApplied:   float64(a.Driver.FoldApplied - b.Driver.FoldApplied),
	}
	if a.Store != nil && b.Store != nil {
		d.storeFailures = float64((a.Store.Quarantined - b.Store.Quarantined) + (a.Store.IOErrors - b.Store.IOErrors))
	}
	return d
}

// perComputed divides a delta by the number of computed requests.
func (d statsDelta) perComputed(x float64) float64 { return ratio(x, d.computed) }

// applyAttempts is the number of restructurings the correlation rounds
// tried: every clone except each run's defensive input copy and the fold
// pass's attempts.
func (d statsDelta) applyAttempts() float64 { return d.clones - d.runs - d.foldAttempted }

// layers computes the per-layer metrics of the untraced phase: load
// generator, server headers and bodies, and /stats deltas.
func (p *phase) layers(m *metricSet) {
	d := delta(p.before, p.after)
	lags := make([]float64, 0, len(p.samples))
	var attempts, bytes, ok200 float64
	var hits, disk, computedOptimized float64
	for _, s := range p.samples {
		if !s.due.IsZero() {
			lags = append(lags, ms(s.lag()))
		}
		if s.status != 200 {
			continue
		}
		ok200++
		attempts += float64(s.attempts)
		bytes += float64(s.bodyLen)
		if s.cacheServed() {
			hits++
		} else {
			computedOptimized += float64(s.optimized)
		}
		if s.cache == "hit-disk" {
			disk++
		}
	}
	byClass := func(c reqClass) []float64 {
		return p.latenciesMS(func(s *sample) float64 { return s.insideMS }, func(s *sample) bool { return s.req.class == c })
	}
	m.set("loadgen.lag_p90_ms", quantile(lags, 0.9), "ms")
	m.set("server.inside_p50_ms", quantile(p.latenciesMS(func(s *sample) float64 { return s.insideMS }, nil), 0.5), "ms")
	m.set("server.outside_p50_ms", quantile(p.latenciesMS((*sample).outsideMS, nil), 0.5), "ms")
	m.set("server.attempts_per_request", ratio(attempts, ok200), "count")
	m.set("server.response_kb", ratio(bytes, ok200)/1024, "KiB")
	m.set("store.hit_ratio", ratio(hits, ok200), "ratio")
	m.set("store.disk_hit_ratio", ratio(disk, ok200), "ratio")
	m.set("store.exact_hit_p50_ms", quantile(byClass(classExact), 0.5), "ms")
	m.set("store.variant_hit_p50_ms", quantile(byClass(classVariant), 0.5), "ms")
	m.set("store.miss_p50_ms", quantile(byClass(classNew), 0.5), "ms")
	m.set("store.failures", d.storeFailures, "count")
	m.set("analysis.ms_per_request", d.perComputed(d.analysisNS/1e6), "ms")
	m.set("analysis.pairs_per_request", d.perComputed(d.pairs), "count")
	m.set("analysis.pairs_per_ms", ratio(d.pairs, d.analysisNS/1e6), "1/ms")
	m.set("analysis.reuse_rate", ratio(d.reused, d.pairs), "ratio")
	m.set("analysis.reanalysis_ratio", ratio(d.reanalyses, d.analyses), "ratio")
	m.set("restructure.apply_self_ms_per_request", d.perComputed((d.applyNS-d.verifyNS-d.checkNS)/1e6), "ms")
	m.set("restructure.rounds_per_request", d.perComputed(d.rounds), "count")
	m.set("restructure.clones_per_request", d.perComputed(d.clones), "count")
	m.set("restructure.apply_yield", ratio(computedOptimized, d.applyAttempts()), "ratio")
	m.set("interp.verify_ms_per_request", d.perComputed(d.verifyNS/1e6), "ms")
	m.set("interp.verify_runs_per_request", d.perComputed(d.verifyRuns), "count")
	m.set("check.ms_per_request", d.perComputed(d.checkNS/1e6), "ms")
	m.set("check.runs_per_request", d.perComputed(d.checkRuns), "count")
	m.set("fold.ms_per_request", d.perComputed(d.foldNS/1e6), "ms")
	m.set("fold.yield", ratio(d.foldApplied, d.foldAttempted), "ratio")
}
