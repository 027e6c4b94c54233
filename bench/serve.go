package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"time"

	anonnet "repro"
	"repro/internal/serve"
)

// serveSpec is the run-server workload: an in-process serve.Server behind
// real loopback HTTP, driven in a closed loop — each client sends its next
// request only when the previous reply arrived, as anonserved's callers do.
// Every freshEvery-th request of a client is a fresh key (an execution plus
// a cache insert); the others draw uniformly from the hot keys, which the
// warm-up has cached. The exact 1-in-freshEvery pattern keeps the hit/miss
// mix, and with it every per-request average, the same for every seed.
type serveSpec struct {
	name, why  string
	scenario   string
	hotSeeds   int // hot keys per op; 3 ops
	warmup     int // warm-up requests, hot keys first
	freshEvery int
	clients    int
	tracedReqs int // requests per client in each half of the traced pass
	doCalls    int // direct anonnet.Do calls in the traced pass
}

func serveWorkload() *serveSpec {
	return &serveSpec{
		name:       "serve_mix",
		why:        "the only workload through the serve, cache, singleflight and facade layers: cache hits form the latency head, executions the tail",
		scenario:   "torus:w=5,h=5",
		hotSeeds:   16,
		warmup:     200,
		freshEvery: 5,
		clients:    2,
		tracedReqs: 500,
		doCalls:    100,
	}
}

func (s *serveSpec) Name() string { return s.name }
func (s *serveSpec) Why() string  { return s.why }

// The request seed space of workload seed S: hot keys use S*1e6 + [0, 1000),
// fresh keys S*1e6 + 1000 + c*1e5 + j for client c's j-th fresh request.
const (
	seedSpan    = 1_000_000
	freshOffset = 1000
	clientSpan  = 100_000
)

func (s *serveSpec) request(op int, seed int64) anonnet.Request {
	return anonnet.Request{
		Op:        anonnet.Ops()[op%len(anonnet.Ops())],
		Scenario:  s.scenario,
		Message:   "bench",
		Scheduler: "random",
		Seed:      seed,
	}
}

// hotBodies are the request bodies of the hot keys, in key order.
func (s *serveSpec) hotBodies(seed int64) ([][]byte, error) {
	var out [][]byte
	for j := 0; j < s.hotSeeds*len(anonnet.Ops()); j++ {
		b, err := json.Marshal(s.request(j, seed*seedSpan+int64(j/len(anonnet.Ops()))))
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// reqGen is one client's deterministic request sequence.
type reqGen struct {
	s     *serveSpec
	rng   *rand.Rand
	hot   int
	base  int64 // first fresh request seed of this client
	k     int   // requests generated
	fresh int   // fresh requests generated
}

func (s *serveSpec) generators(seed int64, hot int) []*reqGen {
	gens := make([]*reqGen, s.clients)
	for c := range gens {
		gens[c] = &reqGen{
			s:    s,
			rng:  rand.New(rand.NewSource(seed*31 + int64(c))),
			hot:  hot,
			base: seed*seedSpan + freshOffset + int64(c)*clientSpan,
		}
	}
	return gens
}

// next returns the next request body and its hot-key index, -1 when fresh.
func (g *reqGen) next() ([]byte, int, error) {
	g.k++
	if g.k%g.s.freshEvery != 0 {
		return nil, g.rng.Intn(g.hot), nil
	}
	j := g.fresh
	g.fresh++
	b, err := json.Marshal(g.s.request(j, g.base+int64(j)))
	return b, -1, err
}

// harness is a running server: serve.Server behind httptest on loopback,
// optionally a second listener whose handler is wrapped in the timing
// middleware, and a keep-alive client.
type harness struct {
	srv    *serve.Server
	plain  *httptest.Server
	traced *httptest.Server
	timing *timedHandler
	client *http.Client
}

func (s *serveSpec) start(tracedReqs int) *harness {
	srv := serve.NewServer(serve.Config{Workers: s.clients})
	h := &harness{
		srv:    srv,
		plain:  httptest.NewServer(srv.Handler()),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: s.clients, DisableCompression: true}},
	}
	if tracedReqs > 0 {
		h.timing = newTimedHandler(srv.Handler(), tracedReqs)
		h.traced = httptest.NewServer(h.timing)
	}
	return h
}

func (h *harness) close() {
	h.client.CloseIdleConnections()
	h.plain.Close()
	if h.traced != nil {
		h.traced.Close()
	}
	h.srv.Close()
}

// post sends one run request and returns the response's cache status and
// result bytes. idx >= 0 tags the request for the timing middleware.
func (h *harness) post(ts *httptest.Server, body []byte, idx int) (status string, result []byte, err error) {
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return "", nil, err
	}
	if idx >= 0 {
		req.Header.Set("X-Bench-Req", strconv.Itoa(idx))
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return "", nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return "", nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return "", nil, fmt.Errorf("status %d: %s", resp.StatusCode, data)
	}
	return splitResponse(data)
}

// splitResponse cuts a /v1/run reply, {"cache":{"status":S,"key":K},"result":R},
// into S and R without decoding R, so checking a reply costs the client
// little next to the request it checks.
func splitResponse(body []byte) (string, []byte, error) {
	rest, ok := bytes.CutPrefix(body, []byte(`{"cache":{"status":"`))
	status, rest, ok2 := bytes.Cut(rest, []byte(`"`))
	_, result, ok3 := bytes.Cut(rest, []byte(`"result":`))
	result = bytes.TrimSpace(result)
	result, ok4 := bytes.CutSuffix(result, []byte("}"))
	if !ok || !ok2 || !ok3 || !ok4 {
		return "", nil, fmt.Errorf("malformed reply %.120q", body)
	}
	return string(status), result, nil
}

// clientLog is what one client saw.
type clientLog struct {
	lat      []float64 // ms
	start    []time.Time
	hit      []bool
	fresh    int
	failed   int
	firstErr error
}

// drive runs the closed loop: every client sends requests until it has sent
// perClient of them (perClient > 0) or the deadline has passed. Replies are
// checked: a hot key must be a cache hit whose result is byte-identical to
// the one cached in the warm-up, a fresh key an execution.
func (h *harness) drive(ts *httptest.Server, gens []*reqGen, hot, hotResults [][]byte, perClient int, deadline time.Time) []clientLog {
	logs := make([]clientLog, len(gens))
	var wg sync.WaitGroup
	for c := range gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lg := &logs[c]
			for k := 0; perClient <= 0 || k < perClient; k++ {
				if perClient <= 0 && !time.Now().Before(deadline) {
					return
				}
				body, key, err := gens[c].next()
				if key >= 0 {
					body = hot[key]
				} else {
					lg.fresh++
				}
				idx := -1
				if h.timing != nil && ts == h.traced {
					idx = c*perClient + k
				}
				t0 := time.Now()
				var status string
				var result []byte
				if err == nil {
					status, result, err = h.post(ts, body, idx)
				}
				lg.lat = append(lg.lat, ms(time.Since(t0)))
				lg.start = append(lg.start, t0)
				lg.hit = append(lg.hit, status == "hit")
				switch {
				case err != nil:
				case key >= 0 && (status != "hit" || !bytes.Equal(result, hotResults[key])):
					err = fmt.Errorf("hot key %d: status %q, result matches cache: %v", key, status, bytes.Equal(result, hotResults[key]))
				case key < 0 && status != "miss":
					err = fmt.Errorf("fresh key answered %q", status)
				}
				if err != nil {
					lg.failed++
					if lg.firstErr == nil {
						lg.firstErr = err
					}
				}
			}
		}()
	}
	wg.Wait()
	return logs
}

// loadRun is the merged outcome of one drive.
type loadRun struct {
	lat, hitLat, missLat []float64
	attempted, failed    int
	fresh                int
}

func merge(logs []clientLog) loadRun {
	var lr loadRun
	for _, lg := range logs {
		lr.lat = append(lr.lat, lg.lat...)
		for i, l := range lg.lat {
			if lg.hit[i] {
				lr.hitLat = append(lr.hitLat, l)
			} else {
				lr.missLat = append(lr.missLat, l)
			}
		}
		lr.attempted += len(lg.lat)
		lr.failed += lg.failed
		lr.fresh += lg.fresh
	}
	return lr
}

// setup starts a server and warms it: each hot key is sent once (an
// execution and a cache insert), then the clients send the rest of the
// warm-up mix. It returns the running server, the clients' generators
// positioned after the warm-up, and each hot key's cached result.
func (s *serveSpec) setup(seed int64, hot [][]byte, tracedReqs int) (*harness, []*reqGen, [][]byte, error) {
	h := s.start(tracedReqs)
	gens := s.generators(seed, len(hot))
	results := make([][]byte, len(hot))
	for j, b := range hot {
		_, r, err := h.post(h.plain, b, -1)
		if err != nil {
			h.close()
			return nil, nil, nil, fmt.Errorf("warm-up hot key %d: %w", j, err)
		}
		results[j] = bytes.Clone(r)
	}
	rest := max(s.warmup-len(hot), 0) / s.clients
	for _, lg := range h.drive(h.plain, gens, hot, results, rest, time.Time{}) {
		if lg.firstErr != nil {
			h.close()
			return nil, nil, nil, fmt.Errorf("warm-up: %w", lg.firstErr)
		}
	}
	return h, gens, results, nil
}

// digest fingerprints the hot keys' results, which expected.json pins.
func digest(results [][]byte) string {
	f := fnv.New64a()
	for _, r := range results {
		f.Write(r)
	}
	return fmt.Sprintf("%016x", f.Sum64())
}

// checkDigest counts every hot key as failed when their results differ from
// the pinned ones.
func checkDigest(pr *passResult, results [][]byte, want *pinned) {
	if want != nil && want.HotDigest != digest(results) {
		fmt.Fprintf(os.Stderr, "bench: serve_mix: hot results digest %s, pinned %s\n", digest(results), want.HotDigest)
		pr.failed += len(results)
	}
}

func (s *serveSpec) pin(seed int64) (*pinned, error) {
	hot, err := s.hotBodies(seed)
	if err != nil {
		return nil, err
	}
	h, _, results, err := s.setup(seed, hot, 0)
	if err != nil {
		return nil, err
	}
	defer h.close()
	return &pinned{HotDigest: digest(results)}, nil
}

// checkExecutions counts a mismatch between the server's executions and the
// fresh keys sent as failed requests: singleflight and the cache must make
// every fresh key exactly one execution and every hot key none.
func checkExecutions(pr *passResult, before, after serve.Stats, fresh int) {
	if got := int(after.Executions - before.Executions); got != fresh {
		fmt.Fprintf(os.Stderr, "bench: serve_mix: %d executions for %d fresh keys\n", got, fresh)
		pr.failed += max(1, got-fresh, fresh-got)
	}
}

func (s *serveSpec) timed(seed int64, dur time.Duration, want *pinned) (*passResult, error) {
	resetPeakRSS()
	hot, err := s.hotBodies(seed)
	if err != nil {
		return nil, err
	}
	var (
		h       *harness
		gens    []*reqGen
		results [][]byte
		setups  []float64
	)
	for range setupReps {
		if h != nil {
			h.close()
		}
		t0 := time.Now()
		if h, gens, results, err = s.setup(seed, hot, 0); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer h.close()

	pr := &passResult{}
	checkDigest(pr, results, want)
	before := h.srv.Stats()
	var lr loadRun
	pr.metrics, err = measure(setups, func() []float64 {
		lr = merge(h.drive(h.plain, gens, hot, results, 0, time.Now().Add(dur)))
		return lr.lat
	})
	checkExecutions(pr, before, h.srv.Stats(), lr.fresh)
	pr.attempted += lr.attempted
	pr.failed += lr.failed
	return pr, err
}

// traced sends tracedReqs requests per client untraced, then as many through
// the timing middleware, then times anonnet.Do directly on fresh keys.
func (s *serveSpec) traced(seed int64, want *pinned) (*passResult, error) {
	hot, err := s.hotBodies(seed)
	if err != nil {
		return nil, err
	}
	h, gens, results, err := s.setup(seed, hot, s.tracedReqs*s.clients)
	if err != nil {
		return nil, err
	}
	defer h.close()
	pr := &passResult{}
	checkDigest(pr, results, want)
	m := map[string]float64{}
	pr.metrics = m

	before := h.srv.Stats()
	base := merge(h.drive(h.plain, gens, hot, results, s.tracedReqs, time.Time{}))
	spanNS := calibrateSpan()
	mid := h.srv.Stats()
	origin := time.Now()
	logs := h.drive(h.traced, gens, hot, results, s.tracedReqs, time.Time{})
	after := h.srv.Stats()
	traced := merge(logs)
	checkExecutions(pr, before, after, base.fresh+traced.fresh)
	pr.attempted += base.attempted + traced.attempted
	pr.failed += base.failed + traced.failed

	var handlerNS, clientNS float64
	for c, lg := range logs {
		for i, l := range lg.lat {
			hns := h.timing.ns[c*s.tracedReqs+i].Load()
			handlerNS += float64(hns)
			clientNS += l * 1e6
			dur := time.Duration(l * 1e6)
			pr.spans = append(pr.spans, root("request", lg.start[i], origin, dur, leaf("serve.handler", 1, hns, spanNS)))
		}
	}

	var do []float64
	for j := range s.doCalls {
		req := s.request(j, seed*seedSpan+freshOffset+int64(s.clients)*clientSpan+int64(j))
		t0 := time.Now()
		res, err := anonnet.Do(req)
		do = append(do, ms(time.Since(t0)))
		pr.attempted++
		if err != nil || res.Report == nil {
			pr.failed++
		}
	}

	m["serve.hit_ms_p50"] = median(traced.hitLat)
	m["serve.miss_ms_p50"] = median(traced.missLat)
	m["serve.req_ms_p99"] = percentile(base.lat, 99)
	m["serve.handler_share"] = ratio(handlerNS, clientNS)
	m["serve.hits"] = float64(after.Hits - mid.Hits)
	m["serve.misses"] = float64(after.Misses - mid.Misses)
	m["serve.joins"] = float64(after.Joins - mid.Joins)
	m["serve.executions"] = float64(after.Executions - mid.Executions)
	m["serve.saturated"] = float64(after.Saturated - mid.Saturated)
	m["serve.evictions"] = float64(after.CacheEvictions - mid.CacheEvictions)
	m["anonnet.do_ms_p50"] = median(do)
	m["trace.span_ns"] = spanNS
	m["trace.overhead"] = median(traced.lat)/median(base.lat) - 1
	return pr, nil
}
