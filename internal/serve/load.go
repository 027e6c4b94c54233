package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	anonnet "repro"
	"repro/internal/par"
)

// Load describes one server load: Clients concurrent clients each POST
// PerClient run requests, drawing seeds round-robin from Distinct values so
// the workload has exactly Distinct cache keys.
type Load struct {
	Clients   int
	PerClient int
	Distinct  int
}

// loadRequest is the i-th request body of a Load: a small seq broadcast on
// a registry scenario, varying only the scheduler seed — cheap enough that
// the measurement is dominated by the serving path, not the engine.
func (l Load) loadRequest(i int) anonnet.Request {
	return anonnet.Request{
		Op:        "broadcast",
		Scenario:  "torus:w=4,h=4,seed=1",
		Message:   "bench",
		Scheduler: "random",
		Seed:      int64(i % l.Distinct),
	}
}

// LoadResult is what RunLoad measured from the client side.
type LoadResult struct {
	// RunsPerSec is end-to-end request throughput (requests / wall-clock).
	RunsPerSec float64
	// CacheHitRate is the fraction of requests answered without a fresh
	// execution (cache hits plus singleflight joins, over all requests).
	CacheHitRate float64
	// Executions counts the responses whose cache status was "miss": the
	// engine runs the load caused. On a cold server it equals Distinct.
	Executions int64
}

// RunLoad drives a Load against a live server at baseURL and measures
// end-to-end throughput. Every response must be 200; the result carries the
// hit rate implied by the cache provenance of each response. anonbench's
// -server mode drives a remote daemon with it.
func RunLoad(baseURL string, l Load) (*LoadResult, error) {
	if l.Clients <= 0 || l.PerClient <= 0 || l.Distinct <= 0 {
		return nil, fmt.Errorf("serve: load %+v needs positive clients, per-client, distinct", l)
	}
	client := &http.Client{Timeout: 60 * time.Second}
	url := baseURL + "/v1/run"
	var fresh, firstErr atomic.Int64
	errs := make([]error, l.Clients)

	t0 := time.Now()
	par.Map(l.Clients, l.Clients, func(c int) {
		for i := 0; i < l.PerClient; i++ {
			// Interleave the key space across clients so identical keys are
			// in flight concurrently — the singleflight path, not just the
			// warm-cache path, is what gets measured.
			req := l.loadRequest(c*l.PerClient + i)
			body, err := json.Marshal(req)
			if err == nil {
				var status string
				status, err = postRun(client, url, body, fmt.Sprintf("client-%d", c%4))
				if status == "miss" {
					fresh.Add(1)
				}
			}
			if err != nil {
				if errs[c] == nil {
					errs[c] = fmt.Errorf("client %d request %d: %w", c, i, err)
					firstErr.Store(1)
				}
				return
			}
		}
	})
	wall := time.Since(t0)
	if firstErr.Load() != 0 {
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}

	requests := l.Clients * l.PerClient
	return &LoadResult{
		RunsPerSec:   float64(requests) / wall.Seconds(),
		CacheHitRate: 1 - float64(fresh.Load())/float64(requests),
		Executions:   fresh.Load(),
	}, nil
}

// postRun POSTs one run request and returns the response's cache status.
func postRun(client *http.Client, url string, body []byte, tenant string) (string, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Anon-Tenant", tenant)
	resp, err := client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %d: %s", resp.StatusCode, data)
	}
	var out struct {
		Cache struct {
			Status string `json:"status"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		return "", fmt.Errorf("bad response body: %w", err)
	}
	return out.Cache.Status, nil
}
