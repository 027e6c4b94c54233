package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	anonnet "repro"
)

// decodeError parses the typed error envelope.
func decodeError(t *testing.T, body []byte) *Error {
	t.Helper()
	var out struct {
		Error *Error `json:"error"`
	}
	if err := json.Unmarshal(body, &out); err != nil || out.Error == nil {
		t.Fatalf("response %q is not the error envelope (err=%v)", body, err)
	}
	return out.Error
}

// TestErrorPaths is the end-to-end API error table: every rejection class
// travels as the typed JSON envelope with its documented status code, and
// none of them panics the server (a panic would tear down the httptest
// connection and fail the read).
func TestErrorPaths(t *testing.T) {
	// MaxVertices admits the 11-vertex torus:w=3,h=3 (the "still alive"
	// probe below) and refuses the 18-vertex w=4,h=4.
	srv := NewServer(Config{Workers: 1, QueueDepth: 4, MaxBodyBytes: 4096, MaxVertices: 12})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		status int
		code   string
	}{
		{"malformed-json", "POST", "/v1/run", `{"scenario":`, http.StatusBadRequest, CodeBadJSON},
		{"trailing-data", "POST", "/v1/run", `{}{}`, http.StatusBadRequest, CodeBadJSON},
		{"unknown-field", "POST", "/v1/run", `{"scenario":"torus","frobnicate":1}`, http.StatusBadRequest, CodeBadJSON},
		{"wrong-type", "POST", "/v1/run", `{"seed":"not-a-number"}`, http.StatusBadRequest, CodeBadJSON},
		// no_batch_drain was a request field until forced-choice batch
		// draining was deleted; a body still carrying it is refused.
		{"removed-no-batch-drain", "POST", "/v1/run", `{"scenario":"torus:w=3,h=3","no_batch_drain":true}`, http.StatusBadRequest, CodeBadJSON},
		{"empty-request", "POST", "/v1/run", `{}`, http.StatusBadRequest, CodeBadRequest},
		{"unknown-op", "POST", "/v1/run", `{"op":"divine","scenario":"torus:w=3,h=3"}`, http.StatusBadRequest, CodeBadOp},
		{"bad-scenario", "POST", "/v1/run", `{"scenario":"klein-bottle:w=3"}`, http.StatusBadRequest, CodeBadScenario},
		{"scenario-fault-suffix", "POST", "/v1/run", `{"scenario":"torus:w=3,h=3@drop=0:1"}`, http.StatusBadRequest, CodeBadScenario},
		{"bad-network", "POST", "/v1/run", `{"network":"not a network"}`, http.StatusBadRequest, CodeBadNetwork},
		{"both-graphs", "POST", "/v1/run", `{"scenario":"torus:w=3,h=3","network":"x"}`, http.StatusBadRequest, CodeBadRequest},
		{"unknown-protocol", "POST", "/v1/run", `{"scenario":"torus:w=3,h=3","protocol":"smoke-signals"}`, http.StatusBadRequest, CodeUnknownProtocol},
		{"unknown-engine", "POST", "/v1/run", `{"scenario":"torus:w=3,h=3","engine":"warp"}`, http.StatusBadRequest, CodeUnknownEngine},
		{"wild-engine", "POST", "/v1/run", `{"scenario":"torus:w=3,h=3","engine":"concurrent"}`, http.StatusBadRequest, CodeEngineNotServable},
		{"tcp-engine", "POST", "/v1/run", `{"scenario":"torus:w=3,h=3","engine":"tcp"}`, http.StatusBadRequest, CodeEngineNotServable},
		{"unknown-scheduler", "POST", "/v1/run", `{"scenario":"torus:w=3,h=3","scheduler":"chaos"}`, http.StatusBadRequest, CodeUnknownScheduler},
		{"bad-fault-syntax", "POST", "/v1/run", `{"scenario":"torus:w=3,h=3","faults":"wat"}`, http.StatusBadRequest, CodeBadFaults},
		{"fault-out-of-range", "POST", "/v1/run", `{"scenario":"torus:w=3,h=3","faults":"drop=9999:1"}`, http.StatusBadRequest, CodeBadFaults},
		{"fault-bad-loss", "POST", "/v1/run", `{"scenario":"torus:w=3,h=3","faults":"loss=150"}`, http.StatusBadRequest, CodeBadFaults},
		{"chaos-not-servable", "POST", "/v1/run", `{"scenario":"torus:w=3,h=3","chaos":"disconnect=3"}`, http.StatusBadRequest, CodeChaosNotServable},
		{"negative-shards", "POST", "/v1/run", `{"scenario":"torus:w=3,h=3","engine":"shard","shards":-2}`, http.StatusBadRequest, CodeBadRequest},
		{"network-too-large", "POST", "/v1/run", `{"scenario":"torus:w=4,h=4"}`, http.StatusRequestEntityTooLarge, CodeNetworkTooLarge},
		{"body-too-large", "POST", "/v1/run", fmt.Sprintf(`{"network":%q}`, strings.Repeat("x", 8192)), http.StatusRequestEntityTooLarge, CodeBodyTooLarge},
		{"method-get", "GET", "/v1/run", "", http.StatusMethodNotAllowed, CodeMethodNotAllowed},
		{"method-delete", "DELETE", "/v1/run", "", http.StatusMethodNotAllowed, CodeMethodNotAllowed},
		{"unknown-endpoint", "POST", "/v2/run", `{}`, http.StatusNotFound, CodeNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, bytes.NewReader([]byte(tc.body)))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("request failed (did the server panic?): %v", err)
			}
			defer resp.Body.Close()
			data, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d (%s), want %d", resp.StatusCode, data, tc.status)
			}
			e := decodeError(t, data)
			if e.Code != tc.code {
				t.Fatalf("error code %q (%s), want %q", e.Code, e.Message, tc.code)
			}
			if e.Message == "" {
				t.Fatal("error has no message")
			}
		})
	}

	// The server is still fully alive after the whole rejection gauntlet.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after error gauntlet: %v / %v", resp, err)
	}
	resp.Body.Close()
	code, status, _ := postJSON(t, ts, `{"scenario":"torus:w=3,h=3,seed=1"}`)
	if code != http.StatusOK || status != "miss" {
		t.Fatalf("valid run after error gauntlet: code %d status %q", code, status)
	}
}

// TestCanceledRequest: a request whose context is already dead is answered
// 499/canceled (wired through the handler directly — a real client would
// never read the response of a connection it abandoned).
func TestCanceledRequest(t *testing.T) {
	srv := NewServer(Config{Workers: 1, QueueDepth: 4})
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/run",
		bytes.NewReader([]byte(`{"scenario":"torus:w=3,h=3,seed=1"}`))).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != statusClientClosedRequest {
		t.Fatalf("status %d (%s), want %d", rec.Code, rec.Body.String(), statusClientClosedRequest)
	}
	if e := decodeError(t, rec.Body.Bytes()); e.Code != CodeCanceled {
		t.Fatalf("error code %q, want %q", e.Code, CodeCanceled)
	}
}

// TestRunFailure: an execution that dies (here: panics) is a 500 with
// run_failed, not a dead server, and is never cached.
func TestRunFailure(t *testing.T) {
	srv := NewServer(Config{Workers: 1, QueueDepth: 4})
	defer srv.Close()
	srv.runFn = func(req anonnet.Request) (*anonnet.RunResult, error) {
		panic("engine exploded")
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{"scenario":"torus:w=3,h=3,seed=1"}`
	code, _, raw := postJSON(t, ts, body)
	if code != http.StatusInternalServerError {
		t.Fatalf("status %d (%s), want 500", code, raw)
	}
	if e := decodeError(t, []byte(raw)); e.Code != CodeRunFailed {
		t.Fatalf("error code %q, want %q", e.Code, CodeRunFailed)
	}
	st := srv.Stats()
	if st.Failures != 1 || st.CacheEntries != 0 {
		t.Fatalf("stats after failure: %+v, want 1 failure and an empty cache", st)
	}
	// The failure was not memoized: a healthy runFn now serves the same key.
	srv.runFn = func(req anonnet.Request) (*anonnet.RunResult, error) { return anonnet.Do(req) }
	if code, status, _ := postJSON(t, ts, body); code != http.StatusOK || status != "miss" {
		t.Fatalf("retry after failure: code %d status %q, want 200 miss", code, status)
	}
}

// TestSaturation: with one worker and queue depth 1, the third distinct
// in-flight request is deterministically refused 429 with Retry-After —
// and the health and metrics endpoints stay responsive throughout.
func TestSaturation(t *testing.T) {
	srv := NewServer(Config{Workers: 1, QueueDepth: 1})
	defer srv.Close()
	gate := make(chan struct{})
	srv.runFn = func(req anonnet.Request) (*anonnet.RunResult, error) {
		<-gate
		return anonnet.Do(req)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	reqBody := func(seed int) string {
		return fmt.Sprintf(`{"scenario":"torus:w=3,h=3,seed=1","scheduler":"random","seed":%d}`, seed)
	}
	type reply struct {
		code int
		raw  string
		err  error
	}
	async := func(seed int) chan reply {
		ch := make(chan reply, 1)
		go func() {
			resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader([]byte(reqBody(seed))))
			if err != nil {
				ch <- reply{err: err}
				return
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			ch <- reply{code: resp.StatusCode, raw: string(data)}
		}()
		return ch
	}

	// Request 1 occupies the single worker (gated); request 2 fills the
	// tenant's depth-1 queue. Both states are observable, so the refusal
	// below is deterministic, not a race won.
	r1 := async(1)
	waitFor(t, "worker busy", func() bool { return srv.Stats().Running == 1 })
	r2 := async(2)
	waitFor(t, "queue full", func() bool { return srv.Stats().Queued == 1 })

	resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader([]byte(reqBody(3))))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third request: status %d (%s), want 429", resp.StatusCode, data)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}
	if e := decodeError(t, data); e.Code != CodeSaturated {
		t.Fatalf("error code %q, want %q", e.Code, CodeSaturated)
	}

	// Another tenant has its own queue: its request is admitted, not 429d.
	otherReq, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/run", bytes.NewReader([]byte(reqBody(4))))
	otherReq.Header.Set("X-Anon-Tenant", "other")
	otherCh := make(chan reply, 1)
	go func() {
		resp, err := http.DefaultClient.Do(otherReq)
		if err != nil {
			otherCh <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		otherCh <- reply{code: resp.StatusCode, raw: string(data)}
	}()
	waitFor(t, "other tenant queued", func() bool { return srv.Stats().Queued == 2 })

	// Saturation must not take down the control surface.
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while saturated: %v / %v", resp, err)
	} else {
		resp.Body.Close()
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mdata, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mdata), `anonserved_requests_total{status="saturated"} 1`) {
		t.Fatalf("metrics do not account the refusal:\n%s", mdata)
	}

	close(gate)
	for name, ch := range map[string]chan reply{"first": r1, "second": r2, "other-tenant": otherCh} {
		select {
		case r := <-ch:
			if r.err != nil || r.code != http.StatusOK {
				t.Fatalf("%s request after drain: %+v", name, r)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s request never completed", name)
		}
	}
	if st := srv.Stats(); st.Saturated != 1 {
		t.Fatalf("Saturated = %d, want 1", st.Saturated)
	}
}

// TestShutdown: after Close, admission answers 503 shutting_down.
func TestShutdown(t *testing.T) {
	srv := NewServer(Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	srv.Close()
	code, _, raw := postJSON(t, ts, `{"scenario":"torus:w=3,h=3,seed=1"}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status %d (%s), want 503", code, raw)
	}
	if e := decodeError(t, []byte(raw)); e.Code != CodeShuttingDown {
		t.Fatalf("error code %q, want %q", e.Code, CodeShuttingDown)
	}
	// Cached verdicts stay servable while draining: prime before Close in a
	// fresh server to prove the order of checks.
	srv2 := NewServer(Config{Workers: 1, QueueDepth: 4})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	body := `{"scenario":"torus:w=3,h=3,seed=1"}`
	if code, status, _ := postJSON(t, ts2, body); code != http.StatusOK || status != "miss" {
		t.Fatalf("prime: code %d status %q", code, status)
	}
	srv2.Close()
	if code, status, _ := postJSON(t, ts2, body); code != http.StatusOK || status != "hit" {
		t.Fatalf("cached verdict during shutdown: code %d status %q, want 200 hit", code, status)
	}
}

// TestCacheBounds: the LRU evicts at the entry bound and accounts it.
func TestCacheBounds(t *testing.T) {
	srv := NewServer(Config{Workers: 1, QueueDepth: 8, CacheEntries: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := func(seed int) string {
		return fmt.Sprintf(`{"scenario":"torus:w=3,h=3,seed=1","scheduler":"random","seed":%d}`, seed)
	}
	for seed := 0; seed < 3; seed++ {
		if code, status, _ := postJSON(t, ts, body(seed)); code != http.StatusOK || status != "miss" {
			t.Fatalf("seed %d: code %d status %q", seed, code, status)
		}
	}
	st := srv.Stats()
	if st.CacheEntries != 2 || st.CacheEvictions != 1 {
		t.Fatalf("stats: %+v, want 2 entries and 1 eviction", st)
	}
	// Seed 0 was the LRU victim: re-requesting it is a miss; seed 2 is hot.
	if code, status, _ := postJSON(t, ts, body(0)); code != http.StatusOK || status != "miss" {
		t.Fatalf("evicted key: code %d status %q, want miss", code, status)
	}
	if code, status, _ := postJSON(t, ts, body(2)); code != http.StatusOK || status != "hit" {
		t.Fatalf("resident key: code %d status %q, want hit", code, status)
	}
}

// TestMetricsRender: /metrics is well-formed Prometheus text with the
// anonserved families present.
func TestMetricsRender(t *testing.T) {
	srv := NewServer(Config{Workers: 1, QueueDepth: 4})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if code, status, _ := postJSON(t, ts, `{"scenario":"torus:w=3,h=3,seed=1"}`); code != 200 || status != "miss" {
		t.Fatalf("prime: %d %q", code, status)
	}
	if code, status, _ := postJSON(t, ts, `{"scenario":"torus:w=3,h=3,seed=1"}`); code != 200 || status != "hit" {
		t.Fatalf("hit: %d %q", code, status)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"# TYPE anonserved_requests_total counter",
		`anonserved_requests_total{status="hit"} 1`,
		`anonserved_requests_total{status="miss"} 1`,
		"anonserved_executions_total 1",
		"anonserved_cache_entries 1",
		"# TYPE anonserved_cache_bytes gauge",
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("metrics missing %q:\n%s", want, data)
		}
	}
}

// TestOversizedScenarioRejectedBeforeBuild posts scenarios whose graphs
// would take hundreds of megabytes, or whose runs would take a minute, to a
// server that admits 32 vertices. The server must answer network_too_large
// from the spec's vertex and edge counts, without building the
// 490,002-vertex torus, the 12-vertex regular graph of 20,002 edges, or the
// 12-vertex random networks whose generators would draw 10^8 extra edges,
// so the request allocates little. Network text is sized the same way, from
// its vertices directive and edge lines, before it is parsed.
func TestOversizedScenarioRejectedBeforeBuild(t *testing.T) {
	srv := NewServer(Config{Workers: 1, MaxVertices: 32})
	defer srv.Close()
	h := srv.Handler()
	var bodies []string
	for _, spec := range []string{"torus:w=700,h=700", "torus:w=4294967296,h=4294967296", "scalefree:n=9223372036854775807",
		"regular:n=10,d=2000", "layereddag:layers=2,width=4,fanout=5000",
		"randnet:n=10,extra=100000000", "randdag:n=10,extra=100000000"} {
		bodies = append(bodies, fmt.Sprintf(`{"scenario":%q}`, spec))
	}
	// 75 bytes of network text declaring 2^20 vertices.
	bodies = append(bodies, `{"network":"anonnet v1\nvertices 1048576\nroot 0\nterminal 1\nedge 0 1\n"}`)
	for _, body := range bodies {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(body)))
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status %d, want %d (%s)", body, rec.Code, http.StatusRequestEntityTooLarge, rec.Body)
		}
		if e := decodeError(t, rec.Body.Bytes()); e.Code != CodeNetworkTooLarge {
			t.Fatalf("%s: code %s, want %s", body, e.Code, CodeNetworkTooLarge)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Fatalf("%s: refusing the request allocated %d bytes, want under 1 MB", body, got)
		}
	}
}

// TestNetworkTextEdgeLimit posts network text of 4 vertices to a server that
// admits 32, with parallel edges up to and past maxEdgesPerVertex·32 edges:
// the edge limit applies to network text as it does to scenarios.
func TestNetworkTextEdgeLimit(t *testing.T) {
	srv := NewServer(Config{Workers: 1, MaxVertices: 32})
	defer srv.Close()
	h := srv.Handler()
	limit := maxEdgesPerVertex * 32
	for _, c := range []struct {
		edges int
		want  int
	}{{limit, http.StatusOK}, {limit + 1, http.StatusRequestEntityTooLarge}} {
		// s -> 1, then parallel edges 1 -> 2 and one edge 2 -> t.
		var text strings.Builder
		text.WriteString("anonnet v1\nvertices 4\nroot 0\nterminal 3\nedge 0 1\nedge 2 3\n")
		for i := 2; i < c.edges; i++ {
			text.WriteString("edge 1 2\n")
		}
		body, err := json.Marshal(map[string]string{"network": text.String()})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
		if rec.Code != c.want {
			t.Fatalf("%d edges: status %d, want %d (%s)", c.edges, rec.Code, c.want, rec.Body)
		}
		if c.want != http.StatusOK {
			if e := decodeError(t, rec.Body.Bytes()); e.Code != CodeNetworkTooLarge {
				t.Fatalf("%d edges: code %s, want %s", c.edges, e.Code, CodeNetworkTooLarge)
			}
		}
	}
}
