package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"sort"
	"time"

	"icbe"
	"icbe/internal/check"
	"icbe/internal/fold"
	"icbe/internal/interp"
	"icbe/internal/ir"
	"icbe/internal/reportjson"
	"icbe/internal/server"
)

// span is one timed interval of the traced run. Spans of one request share
// Req; Parent is the ID of the enclosing span, 0 for a root.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Req    int           `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// recorder keeps spans in memory; they are written out when the run ends.
type recorder struct {
	origin time.Time
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// add records a span with explicit bounds and returns its ID.
func (r *recorder) add(name string, req, parent int, start, end time.Duration) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	return id
}

// timed runs f inside a span.
func (r *recorder) timed(name string, req, parent int, f func()) int {
	start := time.Since(r.origin)
	f()
	return r.add(name, req, parent, start, time.Since(r.origin))
}

func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children (overlapping children count once, and the parts
// of a child outside its parent do not count), indexed by span ID.
func selfTimes(spans []span) map[int]time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered time.Duration
		cur := s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, cur), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// fullOptions is the option set the server's full tier runs with its
// default flags: the paper's configuration, two workers, both oracles with
// fatal refusals, and the fold pass the workloads request.
func fullOptions() icbe.Options {
	o := icbe.DefaultOptions()
	o.Workers = 2
	o.Verify, o.Check, o.CheckFatal, o.Fold = true, true, true, true
	return o
}

// tracedRun is the traced phase's outcome.
type tracedRun struct {
	rec     *recorder
	samples []*sample
	// nodes sums the compiled programs' sizes; conds* sum the executed
	// branches of the original and the replayed optimized program on each
	// request's input.
	nodes                   float64
	condsBefore, condsAfter int64
}

// traceLoop is the traced phase: one client sends the stream's requests one
// after another for dur. Each request gets a "request" root span with a
// "server.inside" child taken from the elapsed header; after the response,
// each layer's public entry point is replayed on the same program under its
// own root span, and a full-tier OptimizeContext replay is split into its
// driver phases by the DriverStats walls.
func traceLoop(c *http.Client, base string, ck *checker, dur time.Duration) *tracedRun {
	t := ck.t
	tr := &tracedRun{rec: newRecorder()}
	stop := time.Now().Add(dur)
	for i := 0; time.Now().Before(stop) && (t.n == 0 || i < t.n); i++ {
		s := &sample{req: t.next(i)}
		tr.samples = append(tr.samples, s)
		req := i + 1
		id := tr.rec.timed("request", req, 0, func() { send(c, base, t, s, ck.store) })
		if ck.check(s); !s.ok() {
			continue
		}
		rs := tr.rec.spans[id-1]
		inside := min(time.Duration(s.insideMS*float64(time.Millisecond)), rs.End-rs.Start)
		tr.rec.add("server.inside", req, id, rs.End-inside, rs.End)
		if err := tr.replay(t, s, ck.store.get(s.bodySum), req); err != nil {
			s.bad = err.Error()
		}
	}
	return tr
}

// replay times the layer entry points on the request's program and checks
// the paper's safety property on the replayed optimized program.
func (tr *tracedRun) replay(t *traffic, s *sample, body []byte, req int) error {
	p := t.corpus[s.req.prog]
	src := p.src
	if s.req.variant > 0 {
		src = variantSource(src, s.req.variant)
	}
	rec := tr.rec
	var prog *icbe.Program
	var err error
	rec.timed("icbe.Compile", req, 0, func() { prog, err = icbe.Compile(src) })
	if err != nil {
		return fmt.Errorf("replay compile %s: %w", p.name, err)
	}
	g := prog.Graph()
	tr.nodes += float64(prog.Stats().Nodes)
	rec.timed("ir.HashProgram", req, 0, func() { ir.HashProgram(g) })
	rec.timed("ir.Clone", req, 0, func() { ir.Clone(g) })
	rec.timed("ir.Validate", req, 0, func() { err = ir.Validate(g) })
	if err != nil {
		return fmt.Errorf("replay validate %s: %w", p.name, err)
	}
	rec.timed("check.RunSCCP", req, 0, func() { check.RunSCCP(g) })
	rec.timed("check.AnalyzeInvariants", req, 0, func() { check.AnalyzeInvariants(g) })
	var orig *interp.Result
	rec.timed("interp.Run", req, 0, func() { orig, err = interp.Run(g, interp.Options{Input: p.input}) })
	if err != nil {
		return fmt.Errorf("replay run %s: %w", p.name, err)
	}
	rec.timed("fold.Analyze", req, 0, func() { fold.Analyze(g) })
	var resp server.OptimizeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("replay decode body: %w", err)
	}
	var enc bytes.Buffer
	rec.timed("reportjson.Encode", req, 0, func() { err = reportjson.Encode(&enc, resp) })
	if err != nil {
		return fmt.Errorf("replay encode: %w", err)
	}
	if !bytes.Equal(enc.Bytes(), body) {
		return fmt.Errorf("re-encoding the body of %s does not reproduce it", p.name)
	}

	var opt *icbe.Program
	var rep *icbe.Report
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	id := rec.timed("icbe.OptimizeContext", req, 0, func() { opt, rep, err = prog.OptimizeContext(ctx, fullOptions()) })
	if err != nil {
		return fmt.Errorf("replay optimize %s: %w", p.name, err)
	}
	phases(rec, req, id, rep.Stats)

	res, err := opt.Run(p.input)
	if err != nil {
		return fmt.Errorf("replay run of optimized %s: %w", p.name, err)
	}
	if !slices.Equal(res.Output, p.want) {
		return fmt.Errorf("optimized %s: output differs from the reference", p.name)
	}
	if res.Operations > orig.Operations {
		return fmt.Errorf("optimized %s executes %d operations, the original %d", p.name, res.Operations, orig.Operations)
	}
	tr.condsBefore += orig.CondExecs
	tr.condsAfter += res.Conditionals
	return nil
}

// phases lays the driver's summed phase walls out as children of the
// optimizer span, in driver order: analysis, apply (with verify and check
// inside it), fold. The walls are sums over rounds, so the children are
// synthetic intervals of the right lengths, clipped to the parent.
func phases(rec *recorder, req, parent int, st icbe.DriverStats) {
	ps := rec.spans[parent-1]
	at := ps.Start
	put := func(name string, p int, from time.Duration, d time.Duration) (time.Duration, int) {
		end := min(from+d, ps.End)
		return end, rec.add(name, req, p, from, end)
	}
	at, _ = put("analysis", parent, at, st.AnalysisWall)
	applyStart := at
	at, apply := put("restructure.apply", parent, at, st.ApplyWall)
	v, _ := put("interp.verify", apply, applyStart, min(st.VerifyWall, st.ApplyWall))
	put("check.check", apply, v, min(st.CheckWall, at-v))
	put("fold.pass", parent, at, st.FoldWall)
}

// layerRow is one span name's call count and summed self time.
type layerRow struct {
	name   string
	calls  int
	selfMS float64
}

func layerRows(spans []span) []layerRow {
	self := selfTimes(spans)
	idx := make(map[string]int)
	var rows []layerRow
	for _, s := range spans {
		i, ok := idx[s.Name]
		if !ok {
			i = len(rows)
			idx[s.Name] = i
			rows = append(rows, layerRow{name: s.Name})
		}
		rows[i].calls++
		rows[i].selfMS += ms(self[s.ID])
	}
	return rows
}

// findRow returns the named row, or a zero row when no span had the name.
func findRow(rows []layerRow, name string) layerRow {
	for _, r := range rows {
		if r.name == name {
			return r
		}
	}
	return layerRow{name: name}
}

// perCallMS is the mean self time of the named span.
func perCallMS(rows []layerRow, name string) float64 {
	r := findRow(rows, name)
	return ratio(r.selfMS, float64(r.calls))
}

// printLayers writes the per-layer self-time table: mean self time per
// request and the share of the server-side time of the same requests.
func printLayers(w io.Writer, workload string, rows []layerRow, requests int) {
	insideMS := findRow(rows, "server.inside").selfMS
	fmt.Fprintf(w, "traced run %s: %d requests, self time per request and share of server.inside\n", workload, requests)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-26s %10.4f ms %8.1f%%\n", r.name, ratio(r.selfMS, float64(requests)), 100*ratio(r.selfMS, insideMS))
	}
	fmt.Fprintln(w, "  (request is client-side time outside the server; replayed layers run standalone after the response, so shares need not sum to 100%)")
}

// metrics adds the trace-sourced per-layer metrics; untracedP50 is the
// untraced phase's latency_p50_ms.
func (tr *tracedRun) metrics(m *metricSet, untracedP50 float64) {
	rows := layerRows(tr.rec.spans)
	var reqMS []float64
	for _, s := range tr.rec.spans {
		if s.Name == "request" {
			reqMS = append(reqMS, ms(s.End-s.Start))
		}
	}
	m.set("icbe.compile_ms", perCallMS(rows, "icbe.Compile"), "ms")
	m.set("icbe.compile_nodes_per_ms", ratio(tr.nodes, findRow(rows, "icbe.Compile").selfMS), "nodes/ms")
	m.set("ir.hash_ms", perCallMS(rows, "ir.HashProgram"), "ms")
	m.set("ir.clone_ms", perCallMS(rows, "ir.Clone"), "ms")
	m.set("ir.validate_ms", perCallMS(rows, "ir.Validate"), "ms")
	m.set("check.sccp_ms", perCallMS(rows, "check.RunSCCP"), "ms")
	m.set("check.invariants_ms", perCallMS(rows, "check.AnalyzeInvariants"), "ms")
	m.set("interp.run_ms", perCallMS(rows, "interp.Run"), "ms")
	m.set("fold.analyze_ms", perCallMS(rows, "fold.Analyze"), "ms")
	m.set("reportjson.encode_ms", perCallMS(rows, "reportjson.Encode"), "ms")
	m.set("restructure.dyn_branch_reduction", ratio(float64(tr.condsBefore-tr.condsAfter), float64(tr.condsBefore)), "ratio")
	m.set("trace.overhead_ratio", ratio(quantile(reqMS, 0.5), untracedP50), "ratio")
}
