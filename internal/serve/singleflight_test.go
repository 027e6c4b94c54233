package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	anonnet "repro"
)

// postJSON POSTs body to ts and returns (status code, parsed cache status,
// raw result bytes).
func postJSON(t *testing.T, ts *httptest.Server, body string) (int, string, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, "", string(data)
	}
	var out struct {
		Cache  cacheInfoJSON   `json:"cache"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("bad response %q: %v", data, err)
	}
	return resp.StatusCode, out.Cache.Status, string(out.Result)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSingleflight is the dedup contract under real HTTP concurrency: 64
// identical concurrent requests cost exactly one engine execution, every
// response body is byte-identical, exactly one response is the "miss"
// leader and the rest joined in flight — and afterwards the verdict is a
// cache hit. The execution is gated so all 64 are provably concurrent (no
// timing assumptions), and the suite runs under -race in CI.
func TestSingleflight(t *testing.T) {
	const clients = 64

	srv := NewServer(Config{Workers: 2, QueueDepth: 8})
	defer srv.Close()
	gate := make(chan struct{})
	var execs atomic.Int64
	srv.runFn = func(req anonnet.Request) (*anonnet.RunResult, error) {
		execs.Add(1)
		<-gate
		return anonnet.Do(req)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{"scenario":"torus:w=3,h=3,seed=1","message":"m","scheduler":"random","seed":42,"timeline":true}`
	type reply struct {
		code int
		raw  string
		err  error
	}
	replies := make([]reply, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader([]byte(body)))
			if err != nil {
				replies[i] = reply{err: err}
				return
			}
			defer resp.Body.Close()
			data, err := io.ReadAll(resp.Body)
			replies[i] = reply{code: resp.StatusCode, raw: string(data), err: err}
		}(i)
	}

	// All 64 are now in flight: one leader (miss) holding the gate, 63
	// joiners. The counters prove it before anything completes.
	waitFor(t, "1 miss + 63 joins", func() bool {
		st := srv.Stats()
		return st.Misses == 1 && st.Joins == clients-1
	})
	if got := execs.Load(); got != 1 {
		t.Fatalf("%d executions started while gated, want 1", got)
	}
	close(gate)
	wg.Wait()

	misses, inflight := 0, 0
	var firstResult string
	for i, r := range replies {
		if r.err != nil {
			t.Fatalf("request %d: %v", i, r.err)
		}
		if r.code != http.StatusOK {
			t.Fatalf("request %d: status %d (%s)", i, r.code, r.raw)
		}
		var out struct {
			Cache  cacheInfoJSON   `json:"cache"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal([]byte(r.raw), &out); err != nil {
			t.Fatalf("request %d: bad response %q: %v", i, r.raw, err)
		}
		switch out.Cache.Status {
		case "miss":
			misses++
		case "inflight":
			inflight++
		default:
			t.Fatalf("request %d: cache status %q", i, out.Cache.Status)
		}
		if i == 0 {
			firstResult = string(out.Result)
		} else if string(out.Result) != firstResult {
			t.Fatalf("request %d result diverges:\n%s\nvs\n%s", i, out.Result, firstResult)
		}
	}
	if misses != 1 || inflight != clients-1 {
		t.Fatalf("%d misses + %d inflight, want 1 + %d", misses, inflight, clients-1)
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("%d engine executions for %d identical requests", got, clients)
	}

	// The verdict is now cached: a late identical request is a hit with the
	// same bytes, and no new execution.
	code, status, result := postJSON(t, ts, body)
	if code != http.StatusOK || status != "hit" {
		t.Fatalf("follow-up: code %d status %q, want 200 hit", code, status)
	}
	if result != firstResult {
		t.Fatalf("cache hit bytes diverge from the flight's:\n%s\nvs\n%s", result, firstResult)
	}
	st := srv.Stats()
	if st.Hits != 1 || st.Executions != 1 || st.CacheEntries != 1 {
		t.Fatalf("stats after follow-up: %+v, want 1 hit, 1 execution, 1 entry", st)
	}
}

// TestSingleflightDistinctKeys: requests differing in any key field do NOT
// share a flight — dedup never conflates distinct verdicts.
func TestSingleflightDistinctKeys(t *testing.T) {
	srv := NewServer(Config{Workers: 2, QueueDepth: 32})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	results := make(map[string]string)
	for seed := 0; seed < 3; seed++ {
		body := fmt.Sprintf(`{"scenario":"torus:w=3,h=3,seed=1","scheduler":"random","seed":%d,"timeline":true}`, seed)
		code, status, result := postJSON(t, ts, body)
		if code != http.StatusOK || status != "miss" {
			t.Fatalf("seed %d: code %d status %q, want 200 miss", seed, code, status)
		}
		results[result] = fmt.Sprintf("seed=%d", seed)
	}
	if st := srv.Stats(); st.Executions != 3 || st.CacheEntries != 3 {
		t.Fatalf("stats: %+v, want 3 executions and 3 cache entries", st)
	}
	// Distinct schedules on the random adversary genuinely differ (the
	// timeline records the schedule), so colliding bodies would mean a
	// keying bug upstream of the cache.
	if len(results) != 3 {
		t.Fatalf("3 seeds produced %d distinct result bodies", len(results))
	}
}

// TestEnterFlightRechecksCache pins the window between handleRun's cache
// miss and enterFlight: a leader that stored its body and retired its flight
// in between leaves neither a flight to join nor a reason to run again. The
// late request must be answered from the cache, and the key executed once.
func TestEnterFlightRechecksCache(t *testing.T) {
	srv := NewServer(Config{Workers: 1})
	defer srv.Close()
	req := anonnet.Request{Scenario: "torus:w=3,h=3,seed=1", Scheduler: "random", Seed: 5}
	key, apiErr := KeyOf(&req, Limits{MaxVertices: 64})
	if apiErr != nil {
		t.Fatal(apiErr)
	}

	leader, status, apiErr := srv.enterFlight(key, "t", req)
	if apiErr != nil || status != "miss" {
		t.Fatalf("leader: status %q, err %v; want miss", status, apiErr)
	}
	<-leader.done // body cached, flight retired
	if leader.err != nil {
		t.Fatal(leader.err)
	}

	late, status, apiErr := srv.enterFlight(key, "t", req)
	if apiErr != nil || status != "hit" {
		t.Fatalf("late request: status %q, err %v; want hit", status, apiErr)
	}
	<-late.done
	if string(late.body) != string(leader.body) {
		t.Fatalf("late request's body diverges from the leader's:\n%s\nvs\n%s", late.body, leader.body)
	}
	if st := srv.Stats(); st.Executions != 1 || st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats: %+v, want 1 execution, 1 miss, 1 hit", st)
	}
}

// TestRunLoadCountsExecutions drives RunLoad, the engine of anonbench's
// -server mode, against a cold in-process server: every distinct key is
// executed exactly once, and the client-side miss count agrees with the
// server's own execution counter.
func TestRunLoadCountsExecutions(t *testing.T) {
	srv := NewServer(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	l := Load{Clients: 4, PerClient: 6, Distinct: 3}
	lr, err := RunLoad(ts.URL, l)
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats().Executions; lr.Executions != int64(l.Distinct) || got != lr.Executions {
		t.Fatalf("client saw %d executions, server performed %d, want %d", lr.Executions, got, l.Distinct)
	}
	if want := 1 - float64(l.Distinct)/float64(l.Clients*l.PerClient); lr.CacheHitRate != want {
		t.Fatalf("cache hit rate %v, want %v", lr.CacheHitRate, want)
	}
}
