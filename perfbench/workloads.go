package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"icbe"
	"icbe/internal/progs"
	"icbe/internal/randprog"
)

// workload is one traffic mix against one server configuration.
type workload struct {
	name string
	// open selects an open loop at rate arrivals per second; otherwise a
	// closed loop with maxConns concurrent callers. The cache-repeat rate
	// keeps the server's CPU under a tenth of the two cores, so a hit seldom
	// overlaps a miss: near capacity, an open loop on shared cores measures
	// how much CPU the host lends it, and its p50 and p90 swing with that.
	open bool
	rate float64
	// limitMS is the per-request latency limit behind limit_miss_ratio.
	limitMS float64
	// cacheEntries is the server's -cache-entries; store adds a fresh
	// -store-dir per server launch. The cache-repeat LRU is far below the
	// run's working set yet large enough that memory hits are over half of
	// all requests, so the p50 falls among them and not between the memory
	// and disk hit latencies.
	cacheEntries int
	store        bool
	// build makes the workload's traffic for one seed and run length.
	build func(w *workload, seed uint64, seconds float64) *traffic
}

// maxConns bounds the connections of the load generator (the box's CPUs).
const maxConns = 2

var workloads = []*workload{
	{
		name:    "paper-mix",
		limitMS: 100,
		build:   paperMix,
	},
	{
		name:    "scale-mix",
		limitMS: 500,
		build:   scaleMix,
	},
	{
		name:         "cache-repeat",
		open:         true,
		rate:         40,
		limitMS:      50,
		cacheEntries: 64,
		store:        true,
		build:        cacheRepeat,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// reqClass is the benchmark's own label for a request, used to split the
// cache-repeat latencies by what the store should do with it.
type reqClass int

const (
	classCorpus  reqClass = iota // closed-loop corpus request (store off)
	classExact                   // byte-identical repeat: an L1 source-key hit
	classVariant                 // layout variant: an L2 hit after compile+hash
	classNew                     // never-seen program: a miss
)

func (c reqClass) String() string {
	return [...]string{"corpus", "exact", "variant", "new"}[c]
}

// program is one distinct request target: source, input and the reference
// output computed on the unoptimized compile during set-up.
type program struct {
	name  string
	src   string
	input []int64
	want  []int64
	body  []byte // the encoded /optimize request for src
}

// request is one element of a workload's stream. prog names the canonical
// program (the byte-identity key); variant > 0 sends the layout variant
// with that number instead of the original bytes.
type request struct {
	class   reqClass
	prog    int
	variant int
	due     time.Duration // open loop: offset of the arrival from phase start
}

// traffic is one seeded run's inputs: the programs, the warm-up requests
// sent during set-up, and the measured stream.
type traffic struct {
	corpus []*program
	warmup []request
	// next returns the i-th request of the measured stream; for an open
	// loop, n is the number of arrivals due within the run.
	next func(i int) request
	n    int
}

// wireRequest is the /optimize request every workload sends: run on the
// input, with the dump left on and the fold pass enabled.
type wireRequest struct {
	Program string      `json:"program"`
	Run     bool        `json:"run"`
	Input   []int64     `json:"input"`
	Options wireOptions `json:"options"`
}

type wireOptions struct {
	Fold bool `json:"fold"`
}

func encodeRequest(src string, input []int64) []byte {
	b, err := json.Marshal(wireRequest{Program: src, Run: true, Input: input, Options: wireOptions{Fold: true}})
	if err != nil {
		panic(err) // strings and ints always marshal
	}
	return b
}

// variantSource prefixes line 1 with a block comment: the bytes change, the
// canonical hash and every line number do not.
func variantSource(src string, n int) string {
	return fmt.Sprintf("/* v%d */ ", n) + src
}

// body returns the encoded request bytes for r.
func (t *traffic) body(r request) []byte {
	p := t.corpus[r.prog]
	if r.variant == 0 {
		return p.body
	}
	return encodeRequest(variantSource(p.src, r.variant), p.input)
}

// prepare computes every program's reference output on the unoptimized
// compile and pre-encodes its request. It runs in set-up and is
// not timed.
func (t *traffic) prepare() error {
	for _, p := range t.corpus {
		cp, err := icbe.Compile(p.src)
		if err != nil {
			return fmt.Errorf("compile %s: %w", p.name, err)
		}
		res, err := cp.Run(p.input)
		if err != nil {
			return fmt.Errorf("reference run %s: %w", p.name, err)
		}
		p.want = res.Output
		p.body = encodeRequest(p.src, p.input)
	}
	return nil
}

// rng is splitmix64: small, seedable, and the same on every Go version.
type rng struct{ s uint64 }

func newRng(seed uint64, stream uint64) *rng {
	r := &rng{s: seed*0x9E3779B97F4A7C15 ^ stream*0xD1B54A32D192ED03}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

func (r *rng) input(n int) []int64 {
	in := make([]int64, n)
	for i := range in {
		in[i] = int64(r.intn(12)) - 2
	}
	return in
}

// Stream salts keep the draws of one seed independent of each other.
const (
	saltCorpus = iota + 1
	saltBlocks
	saltArrivals
	saltWarmup
)

// blockStream cycles through the corpus in blocks: every block sends each
// program once, in an order drawn from the seed. Every run thus covers the
// corpus evenly, whatever its length.
func blockStream(seed uint64, n int) func(i int) request {
	var cur []int
	curBlock := -1
	return func(i int) request {
		if b := i / n; b != curBlock {
			cur = newRng(seed, saltBlocks<<32|uint64(b)).perm(n)
			curBlock = b
		}
		return request{class: classCorpus, prog: cur[i%n]}
	}
}

func randGenerate(r *rng, tag string) *program {
	s := r.next()
	return &program{
		name:  fmt.Sprintf("%s-generate-%d", tag, s%100000),
		src:   randprog.Generate(s, randprog.Config{Procs: 4, MaxStmts: 4, MaxDepth: 2}),
		input: r.input(8),
	}
}

func randRecursion(r *rng, tag string) *program {
	s := r.next()
	return &program{
		name:  fmt.Sprintf("%s-recursion-%d", tag, s%100000),
		src:   randprog.Recursion(s, randprog.RecConfig{}),
		input: r.input(8),
	}
}

// paperMix is the seven paper workloads on their Train inputs plus three
// seeded randprog.Recursion and three randprog.Generate programs.
func paperMix(_ *workload, seed uint64, _ float64) *traffic {
	t := &traffic{}
	for _, w := range progs.All() {
		t.corpus = append(t.corpus, &program{name: w.Name, src: w.Source, input: w.Train})
	}
	r := newRng(seed, saltCorpus)
	for i := 0; i < 3; i++ {
		t.corpus = append(t.corpus, randRecursion(r, "paper"), randGenerate(r, "paper"))
	}
	t.next = blockStream(seed, len(t.corpus))
	// The same warm-up on every seed, so setup_s measures the server.
	for i := range progs.All() {
		t.warmup = append(t.warmup, request{class: classCorpus, prog: i})
	}
	return t
}

// scaleLeaves are the size strata of scale-mix: with 100-statement leaves
// they span about 1.5k to 2.9k ICFG nodes.
var scaleLeaves = []int{12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23}

// scaleProgram is a randprog.Scale program of one stratum. Six chain leaves
// with five correlated tests each give 24 applies per program.
func scaleProgram(r *rng, leaves int, tag string) *program {
	s := r.next()
	return &program{
		name: fmt.Sprintf("%s-%d-%d", tag, leaves, s%100000),
		src: randprog.Scale(s, randprog.ScaleConfig{
			Leaves: leaves, LeafStmts: 100, Hubs: 8, Calls: 6, Conds: 3,
			ChainLeaves: 6, ChainLen: 5,
		}),
		input: r.input(8),
	}
}

// scaleMix is two seeded randprog.Scale programs per size stratum.
func scaleMix(_ *workload, seed uint64, _ float64) *traffic {
	t := &traffic{}
	r := newRng(seed, saltCorpus)
	for _, leaves := range scaleLeaves {
		for k := 0; k < 2; k++ {
			t.corpus = append(t.corpus, scaleProgram(r, leaves, "scale"))
		}
	}
	t.next = blockStream(seed, len(t.corpus))
	// The same warm-up on every seed: the smallest and the largest size.
	w := newRng(0, saltWarmup)
	for _, leaves := range []int{scaleLeaves[0], scaleLeaves[len(scaleLeaves)-1]} {
		t.corpus = append(t.corpus, scaleProgram(w, leaves, "warmup"))
		t.warmup = append(t.warmup, request{class: classCorpus, prog: len(t.corpus) - 1})
	}
	return t
}

// Shares of the cache-repeat stream: exact repeats, layout variants, and the
// rest never-seen programs.
const (
	shareExact   = 0.70
	shareVariant = 0.15
	zipfS        = 1.1
)

// cacheRepeat draws Poisson arrivals for the whole run up front: about 70%
// exact repeats and 15% layout variants of earlier programs, each picked
// Zipf over the programs seen so far (the oldest are the most popular), and
// 15% never-seen programs. The first never-seen programs are the seven paper
// workloads in their fixed order, so the most popular programs are the same
// on every seed; the rest are seeded randprog.Recursion programs, whose
// optimize cost is nearly the same from seed to seed, so the p90, which falls
// among the misses, does not straddle two cost modes. Warm-up uses
// randprog.Generate programs of its own, the same on every seed, so the
// measured stream starts against an empty store.
func cacheRepeat(w *workload, seed uint64, seconds float64) *traffic {
	t := &traffic{}
	arr := newRng(seed, saltArrivals)
	gen := newRng(seed, saltCorpus)
	paper := progs.All()
	var reqs []request
	var z zipf
	seen := 0
	variants := 0
	at := time.Duration(0)
	for {
		at += time.Duration(-math.Log(1-arr.float()) / w.rate * float64(time.Second))
		if at.Seconds() >= seconds {
			break
		}
		u := arr.float()
		r := request{due: at}
		switch {
		case seen > 0 && u < shareExact:
			r.class, r.prog = classExact, z.draw(arr, seen)
		case seen > 0 && u < shareExact+shareVariant:
			variants++
			r.class, r.prog, r.variant = classVariant, z.draw(arr, seen), variants
		default:
			var p *program
			switch k := len(t.corpus); {
			case k < len(paper):
				pw := paper[k]
				p = &program{name: pw.Name, src: pw.Source, input: pw.Train}
			default:
				p = randRecursion(gen, "cache")
			}
			t.corpus = append(t.corpus, p)
			r.class, r.prog = classNew, len(t.corpus)-1
			seen++
		}
		reqs = append(reqs, r)
	}
	wr := newRng(0, saltWarmup)
	for i := 0; i < 2*maxConns; i++ {
		t.corpus = append(t.corpus, randGenerate(wr, "warmup"))
		t.warmup = append(t.warmup, request{class: classNew, prog: len(t.corpus) - 1})
	}
	t.n = len(reqs)
	t.next = func(i int) request { return reqs[i] }
	return t
}

// zipf draws ranks 0..n-1 with P(k) proportional to 1/(k+1)^zipfS over a
// population that may grow between draws.
type zipf struct{ cum []float64 }

func (z *zipf) draw(r *rng, n int) int {
	for len(z.cum) < n {
		k := len(z.cum)
		w := math.Pow(float64(k+1), -zipfS)
		if k > 0 {
			w += z.cum[k-1]
		}
		z.cum = append(z.cum, w)
	}
	u := r.float() * z.cum[n-1]
	return sort.SearchFloat64s(z.cum[:n], u)
}
