// Command perfbench is the serving benchmark of icbe: it starts a freshly
// built icbe-serve as a child process, drives /optimize with one seeded
// workload, checks every response, reconciles /stats, and prints the
// workload's metrics. The last line of standard output is one JSON object:
// the end-to-end metrics, or with -trace 1 the per-layer metrics from an
// untraced phase plus a traced phase that replays each layer's public entry
// point. See README.md.
//
// Usage (normally through run.sh, which builds both binaries):
//
//	perfbench -serve-bin icbe-serve -work-dir DIR --workload paper-mix --seed 1 --seconds 25 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// setupRuns is how many times a run sets the server up; setup_s is the
// median.
const setupRuns = 11

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	w        *workload
	seed     uint64
	seconds  float64
	trace    bool
	serveBin string
	workDir  string
}

func main() {
	var (
		name     = flag.String("workload", "", "workload: paper-mix, scale-mix or cache-repeat")
		seed     = flag.Uint64("seed", 1, "traffic seed")
		seconds  = flag.Float64("seconds", 25, "length of the measured run in seconds")
		trace    = flag.Int("trace", 0, "1 runs the untraced and the traced phase and reports per-layer metrics")
		serveBin = flag.String("serve-bin", "", "icbe-serve binary built from the commit under test")
		workDir  = flag.String("work-dir", "", "directory for server logs, store directories and spans")
	)
	flag.Parse()
	w := workloadByName(*name)
	if w == nil || *serveBin == "" || *workDir == "" || *seconds <= 0 || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench -serve-bin BIN -work-dir DIR --workload paper-mix|scale-mix|cache-repeat --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	cfg := config{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, serveBin: *serveBin, workDir: *workDir}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// bench is one run's state: the traffic, the byte-identity table shared by
// every server the run starts, and the failures found so far.
type bench struct {
	config
	t      *traffic
	client *http.Client
	ck     *checker
	fails  []string
}

func (b *bench) fail(format string, args ...any) {
	b.fails = append(b.fails, fmt.Sprintf(format, args...))
}

func run(cfg config) (*result, error) {
	// With -trace 1 the run length is split between the untraced and the
	// traced phase.
	measured := cfg.seconds
	if cfg.trace {
		measured = cfg.seconds / 2
	}
	t := cfg.w.build(cfg.w, cfg.seed, measured)
	if err := t.prepare(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	b := &bench{config: cfg, t: t, client: newClient(), ck: newChecker(t)}
	defer b.client.CloseIdleConnections()
	defer removeStores(cfg.workDir)

	// Set up several times and keep the last server for the measured
	// phase; setup_s is the median.
	var setups []float64
	var srv *serverProc
	for k := 0; k < setupRuns; k++ {
		if srv != nil {
			srv.stop()
		}
		var secs float64
		var err error
		srv, secs, err = b.setup(fmt.Sprintf("setup%d", k))
		if err != nil {
			return nil, err
		}
		setups = append(setups, secs)
	}
	p, err := b.measure(srv, measured)
	srv.stop()
	if err != nil {
		return nil, err
	}
	m := p.endToEnd(quantile(setups, 0.5))
	attempted, failed := len(p.samples), 0
	for _, s := range p.samples {
		if !s.ok() {
			failed++
		}
	}
	fmt.Printf("%s seed %d: %d requests in %.2fs, stream sha256 %s\n",
		cfg.w.name, cfg.seed, len(p.samples), p.wall.Seconds(), streamDigest(t, p.samples))
	if q, ok := tailQuantile(len(p.samples)); ok {
		fmt.Printf("  highest supported tail: p%g of %d samples\n", 100*q, len(p.samples))
	}
	fmt.Print(m.table(fmt.Sprintf("end-to-end %s (closed=%v, limit %.0f ms)", cfg.w.name, !cfg.w.open, cfg.w.limitMS)))
	fmt.Println(m.row(cfg.w.name))
	if !cfg.trace && beyond(len(p.samples), 0.9) < 10 {
		return nil, fmt.Errorf("%d requests leave fewer than ten samples beyond p90; lengthen --seconds", len(p.samples))
	}

	out := m.pick(func(n string) bool { return !gateMetric[n] })
	if cfg.trace {
		out = m.pick(func(n string) bool { return gateMetric[n] })
		p.layers(out)
		tp, err := b.traced(cfg.seconds - measured)
		if err != nil {
			return nil, err
		}
		attempted += len(tp.samples)
		for _, s := range tp.samples {
			if !s.ok() {
				failed++
			}
		}
		tp.metrics(out, m.values["latency_p50_ms"].Value)
		fmt.Print(out.table("per-layer " + cfg.w.name))
	}

	for _, f := range b.fails {
		fmt.Fprintln(os.Stderr, "FAIL:", f)
	}
	return &result{
		Correct:   len(b.fails) == 0 && failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   out.values,
	}, nil
}

// removeStores deletes the run's store directories; every server that used
// them has stopped by the time run returns.
func removeStores(dir string) {
	dirs, _ := filepath.Glob(filepath.Join(dir, "store-*"))
	for _, d := range dirs {
		_ = os.RemoveAll(d) // a leftover directory is emptied by the next run's set-up
	}
}

// setup launches a server and sends the warm-up requests; the time from the
// launch until the last warm-up response is the set-up time.
func (b *bench) setup(tag string) (*serverProc, float64, error) {
	storeDir := ""
	if b.w.store {
		storeDir = filepath.Join(b.workDir, "store-"+tag)
		if err := os.RemoveAll(storeDir); err != nil {
			return nil, 0, err
		}
		if err := os.MkdirAll(storeDir, 0o755); err != nil {
			return nil, 0, err
		}
	}
	start := time.Now()
	srv, err := startServer(context.Background(), b.serveBin, b.w, storeDir, filepath.Join(b.workDir, "serve.log"))
	if err != nil {
		return nil, 0, err
	}
	warm := &traffic{corpus: b.t.corpus, next: func(i int) request { return b.t.warmup[i] }}
	samples := make([]*sample, len(b.t.warmup))
	done := make(chan struct{})
	for k := 0; k < maxConns; k++ {
		go func(k int) {
			for i := k; i < len(samples); i += maxConns {
				samples[i] = &sample{req: warm.next(i)}
				send(b.client, srv.base, warm, samples[i], b.ck.store)
			}
			done <- struct{}{}
		}(k)
	}
	for k := 0; k < maxConns; k++ {
		<-done
	}
	secs := time.Since(start).Seconds()
	for _, s := range samples {
		b.ck.check(s)
		if !s.ok() {
			b.fail("warm-up %s: %s", b.t.corpus[s.req.prog].name, s.bad)
		}
	}
	return srv, secs, nil
}

// measure runs the untraced measured phase on srv and reconciles /stats.
func (b *bench) measure(srv *serverProc, seconds float64) (*phase, error) {
	p := &phase{w: b.w}
	var err error
	if p.before, err = srv.stats(b.client); err != nil {
		return nil, err
	}
	cpu0, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	if b.w.open {
		p.samples, p.wall = openLoop(b.client, srv.base, b.t, b.ck.store)
	} else {
		p.samples, p.wall = closedLoop(b.client, srv.base, b.t, b.ck.store, time.Duration(seconds*float64(time.Second)))
	}
	cpu1, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	p.cpu = cpu1 - cpu0
	if p.rssMB, err = srv.peakRSS(); err != nil {
		return nil, err
	}
	if p.after, err = srv.stats(b.client); err != nil {
		return nil, err
	}
	for _, s := range p.samples {
		b.ck.check(s)
	}
	b.reportBad(p.samples)
	for _, f := range p.reconcile() {
		b.fail("%s", f)
	}
	return p, nil
}

// reportBad records the distinct correctness failures of a phase.
func (b *bench) reportBad(samples []*sample) {
	seen := make(map[string]int)
	for _, s := range samples {
		if !s.ok() {
			seen[s.bad]++
		}
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b.fail("%d× %s", seen[k], k)
	}
}

// traced runs the traced phase against a fresh server.
func (b *bench) traced(seconds float64) (*tracedRun, error) {
	srv, _, err := b.setup("traced")
	if err != nil {
		return nil, err
	}
	tr := traceLoop(b.client, srv.base, b.ck, time.Duration(seconds*float64(time.Second)))
	srv.stop()
	b.reportBad(tr.samples)
	path := filepath.Join(b.workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", b.w.name, b.seed))
	if err := tr.rec.write(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "spans: %s\n", path)
	printLayers(os.Stdout, b.w.name, layerRows(tr.rec.spans), len(tr.samples))
	return tr, nil
}
