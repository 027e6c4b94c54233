package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	anonnet "repro"
	"repro/internal/obs"
	"repro/internal/par"
)

// Config sizes a Server. Zero values select the documented defaults.
type Config struct {
	// Workers is the execution concurrency (<= 0: GOMAXPROCS).
	Workers int
	// QueueDepth bounds each tenant's pending queue (<= 0: 64); Submit
	// beyond it is answered 429 + Retry-After.
	QueueDepth int
	// CacheEntries bounds the verdict cache's entry count (<= 0: 1024).
	CacheEntries int
	// CacheBytes bounds the verdict cache's payload bytes (<= 0: 64 MiB).
	CacheBytes int64
	// MaxBodyBytes bounds the request body (<= 0: 1 MiB).
	MaxBodyBytes int64
	// MaxVertices bounds admitted networks (<= 0: 4096).
	MaxVertices int
}

// Limits is the admission subset of Config that KeyOf enforces while
// resolving a request's network.
type Limits struct {
	MaxVertices int
}

// Server executes anonnet Requests behind a verdict cache. The handling
// pipeline for POST /v1/run is: decode and validate (KeyOf), consult the
// cache (hit → replay the stored bytes), otherwise enter the singleflight
// group — the first request for a key becomes the leader and submits one
// execution to the fair pool; every identical concurrent request joins the
// leader's flight and waits, so N identical requests cost one run. Results
// are cached as immutable bytes, making a hit byte-identical to the cold
// response it replays.
type Server struct {
	cfg   Config
	pool  *par.Pool
	cache *cache

	mu      sync.Mutex
	flights map[Key]*flight

	// runFn is the execution seam: production wires anonnet.Do, tests
	// substitute gated or counting stand-ins to pin down admission and
	// singleflight behavior without timing assumptions.
	runFn func(anonnet.Request) (*anonnet.RunResult, error)

	hits       atomic.Int64
	misses     atomic.Int64
	joins      atomic.Int64
	executions atomic.Int64
	failures   atomic.Int64
	saturated  atomic.Int64
}

// flight is one in-progress execution; joiners wait on done and read the
// outcome the leader's job left behind.
type flight struct {
	done chan struct{}
	body []byte
	err  *Error
}

// Stats is a consistent-enough snapshot of the server's counters for tests
// and the /metrics endpoint.
type Stats struct {
	Hits       int64 // requests answered from the cache
	Misses     int64 // requests that became flight leaders
	Joins      int64 // requests that joined an in-progress flight
	Executions int64 // engine runs actually performed
	Failures   int64 // executions that ended in run_failed
	Saturated  int64 // requests refused with 429

	CacheEntries   int
	CacheBytes     int64
	CacheEvictions int64
	Queued         int
	Running        int
}

// NewServer builds a Server; Close releases its worker pool.
func NewServer(cfg Config) *Server {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.MaxVertices <= 0 {
		cfg.MaxVertices = 4096
	}
	s := &Server{
		cfg:     cfg,
		pool:    par.NewPool(cfg.Workers, cfg.QueueDepth),
		cache:   newCache(cfg.CacheEntries, cfg.CacheBytes),
		flights: make(map[Key]*flight),
	}
	s.runFn = func(req anonnet.Request) (*anonnet.RunResult, error) {
		return anonnet.Do(req)
	}
	return s
}

// Close stops admission and drains in-flight work.
func (s *Server) Close() { s.pool.Close() }

// Stats snapshots the counters.
func (s *Server) Stats() Stats {
	entries, bytes, evictions := s.cache.stats()
	return Stats{
		Hits:           s.hits.Load(),
		Misses:         s.misses.Load(),
		Joins:          s.joins.Load(),
		Executions:     s.executions.Load(),
		Failures:       s.failures.Load(),
		Saturated:      s.saturated.Load(),
		CacheEntries:   entries,
		CacheBytes:     bytes,
		CacheEvictions: evictions,
		Queued:         s.pool.Queued(),
		Running:        s.pool.Running(),
	}
}

// Handler returns the server's HTTP surface: POST /v1/run, GET /metrics,
// GET /healthz. Every error body is the typed {"error":{code,message}}
// envelope.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", s.handleRun)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeErr(w, Errf(CodeNotFound, "no such endpoint %q (have /v1/run, /metrics, /healthz)", r.URL.Path))
	})
	return mux
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeErr(w, Errf(CodeMethodNotAllowed, "%s /v1/run is not served; POST a run request", r.Method))
		return
	}
	var req anonnet.Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, Errf(CodeBodyTooLarge, "request body exceeds %d bytes", s.cfg.MaxBodyBytes))
			return
		}
		writeErr(w, Errf(CodeBadJSON, "%v", err))
		return
	}
	if dec.More() {
		writeErr(w, Errf(CodeBadJSON, "trailing data after the request object"))
		return
	}

	key, apiErr := KeyOf(&req, Limits{MaxVertices: s.cfg.MaxVertices})
	if apiErr != nil {
		writeErr(w, apiErr)
		return
	}
	if err := r.Context().Err(); err != nil {
		writeErr(w, Errf(CodeCanceled, "request canceled before admission: %v", err))
		return
	}

	if body, ok := s.cache.get(key); ok {
		s.hits.Add(1)
		writeResult(w, "hit", key, body)
		return
	}

	tenant := r.Header.Get("X-Anon-Tenant")
	if tenant == "" {
		tenant = "anon"
	}
	fl, status, apiErr := s.enterFlight(key, tenant, req)
	if apiErr != nil {
		writeErr(w, apiErr)
		return
	}
	select {
	case <-fl.done:
	case <-r.Context().Done():
		// The execution (if any) continues and will populate the cache;
		// only this response is abandoned.
		writeErr(w, Errf(CodeCanceled, "client went away: %v", r.Context().Err()))
		return
	}
	if fl.err != nil {
		writeErr(w, fl.err)
		return
	}
	writeResult(w, status, key, fl.body)
}

// enterFlight joins the flight for key, creating it (and submitting the one
// execution) when absent. The returned status is "miss" for the leader,
// "inflight" for joiners and "hit" when the key was cached after the
// caller's own cache lookup missed.
func (s *Server) enterFlight(key Key, tenant string, req anonnet.Request) (*flight, string, *Error) {
	s.mu.Lock()
	if fl, ok := s.flights[key]; ok {
		s.joins.Add(1)
		s.mu.Unlock()
		return fl, "inflight", nil
	}
	// A leader may have stored its body and retired its flight since the
	// caller missed the cache. execute stores before it retires under s.mu,
	// so under s.mu a stored body is found either in flight or here.
	if body, ok := s.cache.get(key); ok {
		s.hits.Add(1)
		s.mu.Unlock()
		fl := &flight{done: make(chan struct{}), body: body}
		close(fl.done)
		return fl, "hit", nil
	}
	fl := &flight{done: make(chan struct{})}
	s.flights[key] = fl
	s.mu.Unlock()

	if err := s.pool.Submit(tenant, func() { s.execute(key, req, fl) }); err != nil {
		var apiErr *Error
		switch {
		case errors.Is(err, par.ErrSaturated):
			s.saturated.Add(1)
			apiErr = Errf(CodeSaturated, "tenant %q has %d runs pending; retry shortly", tenant, s.cfg.queueDepth())
		case errors.Is(err, par.ErrClosed):
			apiErr = Errf(CodeShuttingDown, "server is shutting down")
		default:
			apiErr = Errf(CodeRunFailed, "%v", err)
		}
		// Joiners may already be waiting on this flight: hand them the
		// same refusal before unblocking them.
		fl.err = apiErr
		s.mu.Lock()
		delete(s.flights, key)
		s.mu.Unlock()
		close(fl.done)
		return nil, "", apiErr
	}
	s.misses.Add(1)
	return fl, "miss", nil
}

// execute is the leader's pool job: run, cache on success, publish the
// outcome, retire the flight. The cache is populated before the flight is
// removed, and enterFlight looks the key up again under s.mu, so a request
// whose first lookup missed finds either the flight or the cached body.
func (s *Server) execute(key Key, req anonnet.Request, fl *flight) {
	body, apiErr := s.run(req)
	if apiErr == nil {
		s.cache.put(key, body)
		fl.body = body
	} else {
		s.failures.Add(1)
		fl.err = apiErr
	}
	s.mu.Lock()
	delete(s.flights, key)
	s.mu.Unlock()
	close(fl.done)
}

// run performs one engine execution and serializes its result, converting
// panics to run_failed (jobs handed to the pool must not panic).
func (s *Server) run(req anonnet.Request) (body []byte, apiErr *Error) {
	defer func() {
		if r := recover(); r != nil {
			apiErr = Errf(CodeRunFailed, "run panicked: %v", r)
		}
	}()
	s.executions.Add(1)
	res, err := s.runFn(req)
	// A quiescent run (ErrNotTerminated with a report) is a first-class,
	// cacheable verdict — that is how fault-plan requests are served.
	if err != nil && !errors.Is(err, anonnet.ErrNotTerminated) {
		return nil, Errf(CodeRunFailed, "%v", err)
	}
	if res == nil || res.Report == nil {
		return nil, Errf(CodeRunFailed, "engine returned no report")
	}
	raw, merr := marshalResult(req, res)
	if merr != nil {
		return nil, Errf(CodeRunFailed, "serializing result: %v", merr)
	}
	return raw, nil
}

func (c Config) queueDepth() int {
	if c.QueueDepth <= 0 {
		return 64
	}
	return c.QueueDepth
}

// reportJSON is the wire form of anonnet.Report (deterministic fields only;
// wall-clock phases are excluded so cached bytes replay exactly).
type reportJSON struct {
	Protocol       string `json:"protocol"`
	Terminated     bool   `json:"terminated"`
	AllReceived    bool   `json:"all_received"`
	Messages       int    `json:"messages"`
	TotalBits      int64  `json:"total_bits"`
	BandwidthBits  int64  `json:"bandwidth_bits"`
	MaxMessageBits int    `json:"max_message_bits"`
	AlphabetSize   int    `json:"alphabet_size,omitempty"`
	Steps          int    `json:"steps"`
	Rounds         int    `json:"rounds,omitempty"`
	PeakInFlight   int    `json:"peak_in_flight"`
	MaxStateBits   int    `json:"max_state_bits"`
	Dropped        int    `json:"dropped,omitempty"`
}

type labelJSON struct {
	Lo   string `json:"lo"`
	Hi   string `json:"hi"`
	Bits int    `json:"bits"`
}

type topologyEdgeJSON struct {
	From          string `json:"from"`
	To            string `json:"to"`
	OutPort       int    `json:"out_port"`
	InPort        int    `json:"in_port"`
	FromOutDegree int    `json:"from_out_degree"`
}

type topologyJSON struct {
	Vertices []string           `json:"vertices"`
	Edges    []topologyEdgeJSON `json:"edges"`
}

type resultJSON struct {
	Report   reportJSON           `json:"report"`
	Labels   map[string]labelJSON `json:"labels,omitempty"`
	Topology *topologyJSON        `json:"topology,omitempty"`
	Timeline json.RawMessage      `json:"timeline,omitempty"`
}

// marshalResult renders a run outcome as the deterministic `result` bytes
// the cache stores. The timeline is rendered through TimelineJSON — the
// deterministic plane only; wall-clock phase timings never enter a cached
// body. encoding/json sorts map keys, so the labels object is
// byte-deterministic too.
func marshalResult(req anonnet.Request, res *anonnet.RunResult) ([]byte, error) {
	rep := res.Report
	out := resultJSON{Report: reportJSON{
		Protocol:       rep.Protocol,
		Terminated:     rep.Terminated,
		AllReceived:    rep.AllReceived,
		Messages:       rep.Messages,
		TotalBits:      rep.TotalBits,
		BandwidthBits:  rep.BandwidthBits,
		MaxMessageBits: rep.MaxMessageBits,
		AlphabetSize:   rep.AlphabetSize,
		Steps:          rep.Steps,
		Rounds:         rep.Rounds,
		PeakInFlight:   rep.PeakInFlight,
		MaxStateBits:   rep.MaxStateBits,
		Dropped:        rep.Dropped,
	}}
	if len(res.Labels) > 0 {
		out.Labels = make(map[string]labelJSON, len(res.Labels))
		for v, l := range res.Labels {
			out.Labels[fmt.Sprintf("%d", int(v))] = labelJSON{Lo: l.Lo, Hi: l.Hi, Bits: l.Bits}
		}
	}
	if res.Topology != nil {
		topo := &topologyJSON{Vertices: res.Topology.Vertices}
		for _, e := range res.Topology.Edges {
			topo.Edges = append(topo.Edges, topologyEdgeJSON{
				From: e.From, To: e.To,
				OutPort: e.OutPort, InPort: e.InPort,
				FromOutDegree: e.FromOutDegree,
			})
		}
		out.Topology = topo
	}
	if req.Timeline && rep.Timeline != nil {
		tl, err := rep.Timeline.TimelineJSON()
		if err != nil {
			return nil, err
		}
		out.Timeline = tl
	}
	return json.Marshal(out)
}

type cacheInfoJSON struct {
	Status string `json:"status"` // "hit" | "miss" | "inflight"
	Key    string `json:"key"`    // Key.Digest of the purity tuple
}

type responseJSON struct {
	Cache  cacheInfoJSON   `json:"cache"`
	Result json.RawMessage `json:"result"`
}

func writeResult(w http.ResponseWriter, status string, key Key, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.Encode(responseJSON{ //nolint:errcheck // client gone = nothing to do
		Cache:  cacheInfoJSON{Status: status, Key: key.Digest()},
		Result: body,
	})
}

func writeErr(w http.ResponseWriter, e *Error) {
	w.Header().Set("Content-Type", "application/json")
	if e.Code == CodeSaturated {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(e.Status())
	json.NewEncoder(w).Encode(struct { //nolint:errcheck
		Error *Error `json:"error"`
	}{e})
}

// handleMetrics exports the server counters in the Prometheus text format
// through the same renderer the per-run telemetry uses.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	n := func(v int64) string { return fmt.Sprintf("%d", v) }
	series := func(status string, v int64) obs.PromSeries {
		return obs.PromSeries{Labels: [][2]string{{"status", status}}, Value: n(v)}
	}
	ms := []obs.PromMetric{
		{
			Name: "anonserved_requests_total",
			Help: "Run requests by cache outcome.",
			Kind: "counter",
			Series: []obs.PromSeries{
				series("hit", st.Hits),
				series("miss", st.Misses),
				series("inflight", st.Joins),
				series("saturated", st.Saturated),
			},
		},
		{
			Name:   "anonserved_executions_total",
			Help:   "Engine runs actually performed (misses minus dedup).",
			Kind:   "counter",
			Series: []obs.PromSeries{{Value: n(st.Executions)}},
		},
		{
			Name:   "anonserved_run_failures_total",
			Help:   "Executions that ended in run_failed.",
			Kind:   "counter",
			Series: []obs.PromSeries{{Value: n(st.Failures)}},
		},
		{
			Name:   "anonserved_cache_entries",
			Help:   "Verdict cache entries resident.",
			Kind:   "gauge",
			Series: []obs.PromSeries{{Value: fmt.Sprintf("%d", st.CacheEntries)}},
		},
		{
			Name:   "anonserved_cache_bytes",
			Help:   "Verdict cache payload bytes resident.",
			Kind:   "gauge",
			Series: []obs.PromSeries{{Value: n(st.CacheBytes)}},
		},
		{
			Name:   "anonserved_cache_evictions_total",
			Help:   "Verdict cache LRU evictions.",
			Kind:   "counter",
			Series: []obs.PromSeries{{Value: n(st.CacheEvictions)}},
		},
		{
			Name:   "anonserved_queue_depth",
			Help:   "Admitted runs not yet started.",
			Kind:   "gauge",
			Series: []obs.PromSeries{{Value: fmt.Sprintf("%d", st.Queued)}},
		},
		{
			Name:   "anonserved_running",
			Help:   "Runs currently executing.",
			Kind:   "gauge",
			Series: []obs.PromSeries{{Value: fmt.Sprintf("%d", st.Running)}},
		},
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, obs.RenderProm(ms))
}
