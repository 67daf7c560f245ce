package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// sample is one request as the load generator saw it.
type sample struct {
	req request
	// due is the open-loop arrival time (zero in a closed loop) and enq the
	// moment the generator released the request to a connection.
	due, enq    time.Time
	start, done time.Time
	status      int
	cache       string  // X-Icbe-Cache
	insideMS    float64 // X-Icbe-Elapsed-Ms
	bodyLen     int
	bodySum     [32]byte
	tier        string
	attempts    int
	optimized   int
	opsBefore   int
	opsAfter    int
	// bad is the correctness failure, empty when the response passed every
	// check (the checks other than transport and status run after the
	// phase, in checker.check).
	bad string
}

// latency is the request's user-visible time: from the due time in an open
// loop, from the send in a closed one, in both cases to the last body byte.
func (s *sample) latency() time.Duration {
	if !s.due.IsZero() {
		return s.done.Sub(s.due)
	}
	return s.done.Sub(s.start)
}

// lag is how late the open-loop generator released the request.
func (s *sample) lag() time.Duration { return s.enq.Sub(s.due) }

// outsideMS is the part of the send-to-last-byte time the server's own
// elapsed header does not cover: decode, admission and write, plus the
// loopback round trip.
func (s *sample) outsideMS() float64 {
	return float64(s.done.Sub(s.start))/float64(time.Millisecond) - s.insideMS
}

func (s *sample) ok() bool { return s.bad == "" }

func (s *sample) cacheServed() bool {
	return s.cache == "coalesced" || len(s.cache) > 4 && s.cache[:4] == "hit-"
}

func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			DisableCompression:  true,
		},
	}
}

// wireResponse is the part of the /optimize body the load generator checks.
type wireResponse struct {
	Tier     string            `json:"tier"`
	Attempts []json.RawMessage `json:"attempts"`
	Report   *struct {
		Optimized        int `json:"optimized"`
		OperationsBefore int `json:"operations_before"`
		OperationsAfter  int `json:"operations_after"`
	} `json:"report"`
	Output   []int64 `json:"output"`
	RunError string  `json:"run_error"`
}

// bodyStore keeps one copy of each distinct response body, by sha256. The
// send path only hashes; each distinct body is decoded and checked once
// after the phase, so the load generator spends little CPU while the server
// is measured.
type bodyStore struct {
	mu sync.Mutex
	m  map[[32]byte][]byte
}

func (b *bodyStore) put(sum [32]byte, body []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.m == nil {
		b.m = make(map[[32]byte][]byte)
	}
	if _, ok := b.m[sum]; !ok {
		b.m[sum] = body
	}
}

func (b *bodyStore) get(sum [32]byte) []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.m[sum]
}

// send issues one request and records the response's status, headers and
// body digest; the body itself goes to store.
func send(c *http.Client, base string, t *traffic, s *sample, store *bodyStore) {
	body := t.body(s.req)
	s.start = time.Now()
	resp, err := c.Post(base+"/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		s.done = time.Now()
		s.bad = "transport: " + err.Error()
		return
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.done = time.Now()
	s.status = resp.StatusCode
	if err != nil {
		s.bad = "read body: " + err.Error()
		return
	}
	s.cache = resp.Header.Get("X-Icbe-Cache")
	s.insideMS, _ = strconv.ParseFloat(resp.Header.Get("X-Icbe-Elapsed-Ms"), 64)
	s.bodyLen = len(b)
	s.bodySum = sha256.Sum256(b)
	store.put(s.bodySum, b)
}

// checker decodes each distinct body once and checks every sample against
// its program's reference output and against every earlier body for the
// same program and request shape.
type checker struct {
	t       *traffic
	store   *bodyStore
	decoded map[[32]byte]*wireResponse
	ids     identity
}

func newChecker(t *traffic) *checker {
	return &checker{t: t, store: &bodyStore{}, decoded: make(map[[32]byte]*wireResponse), ids: identity{}}
}

func (ck *checker) check(s *sample) {
	if s.bad != "" {
		return
	}
	if s.status != http.StatusOK {
		s.bad = fmt.Sprintf("status %d", s.status)
		return
	}
	wr, ok := ck.decoded[s.bodySum]
	if !ok {
		wr = &wireResponse{}
		if err := json.Unmarshal(ck.store.get(s.bodySum), wr); err != nil {
			wr = nil
		}
		ck.decoded[s.bodySum] = wr
	}
	if wr == nil {
		s.bad = "undecodable body"
		return
	}
	s.tier, s.attempts = wr.Tier, len(wr.Attempts)
	if wr.Report != nil {
		s.optimized, s.opsBefore, s.opsAfter = wr.Report.Optimized, wr.Report.OperationsBefore, wr.Report.OperationsAfter
	}
	p := ck.t.corpus[s.req.prog]
	switch {
	case wr.RunError != "":
		s.bad = "run error: " + wr.RunError
	case !slices.Equal(wr.Output, p.want):
		s.bad = fmt.Sprintf("output of %s differs from the reference", p.name)
	default:
		ck.ids.check(s, ck.t)
	}
}

// identity checks that every 200 body for one canonical program and
// request shape is byte-identical, across fresh computes, L1 and L2 hits,
// disk hits and server restarts within the run.
type identity map[int][32]byte

func (id identity) check(s *sample, t *traffic) {
	if want, ok := id[s.req.prog]; !ok {
		id[s.req.prog] = s.bodySum
	} else if want != s.bodySum {
		s.bad = fmt.Sprintf("body of %s (%s request, cache %s) differs from an earlier one",
			t.corpus[s.req.prog].name, s.req.class, s.cache)
	}
}

// closedLoop runs maxConns callers, each sending its next request as soon as
// the previous one completes, until dur has passed; requests in flight at
// that point complete and count. It returns the samples in stream order and
// the wall time from the start to the last completion.
func closedLoop(c *http.Client, base string, t *traffic, store *bodyStore, dur time.Duration) ([]*sample, time.Duration) {
	var (
		mu      sync.Mutex
		samples []*sample
		wg      sync.WaitGroup
	)
	start := time.Now()
	stop := start.Add(dur)
	for k := 0; k < maxConns; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				mu.Lock()
				s := &sample{req: t.next(len(samples))}
				samples = append(samples, s)
				mu.Unlock()
				send(c, base, t, s, store)
			}
		}()
	}
	wg.Wait()
	return samples, lastDone(samples).Sub(start)
}

// openLoop sends every arrival of the stream at its due time over at most
// maxConns connections; an arrival that finds every connection busy waits for
// one, and that wait counts in its latency.
func openLoop(c *http.Client, base string, t *traffic, store *bodyStore) ([]*sample, time.Duration) {
	samples := make([]*sample, t.n)
	// Sized to the number of sends, so the generator never blocks and its
	// lag measures only its own timing.
	ch := make(chan *sample, t.n)
	var wg sync.WaitGroup
	for k := 0; k < maxConns; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range ch {
				send(c, base, t, s, store)
			}
		}()
	}
	start := time.Now()
	for i := 0; i < t.n; i++ {
		r := t.next(i)
		s := &sample{req: r, due: start.Add(r.due)}
		sleepUntil(s.due)
		s.enq = time.Now()
		samples[i] = s
		ch <- s
	}
	close(ch)
	wg.Wait()
	return samples, lastDone(samples).Sub(start)
}

// sleepUntil blocks in nanosleep(2): the runtime's timers wake up to a
// millisecond late, which would dominate sub-millisecond cache hits.
func sleepUntil(at time.Time) {
	for {
		d := time.Until(at)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		if err := syscall.Nanosleep(&ts, nil); err != syscall.EINTR {
			return
		}
	}
}

func lastDone(samples []*sample) time.Time {
	var last time.Time
	for _, s := range samples {
		if s.done.After(last) {
			last = s.done
		}
	}
	return last
}

// streamDigest is the sha256 of the request stream a phase sent: every
// request body in stream order, with its due offset in an open loop. Two
// runs on one seed that send the same number of requests print the same
// digest.
func streamDigest(t *traffic, samples []*sample) string {
	h := sha256.New()
	for _, s := range samples {
		fmt.Fprintf(h, "%d %d\n", s.req.due, len(t.body(s.req)))
		h.Write(t.body(s.req))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
