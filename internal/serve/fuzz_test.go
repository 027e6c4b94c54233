package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
)

// FuzzServeRequest posts arbitrary bytes to /v1/run. The server must never
// panic; every refusal must be the typed error envelope with a code from
// ErrorCodes served under that code's status; and every admitted request,
// posted a second time, must be a cache hit replaying the first response's
// result bytes exactly.
func FuzzServeRequest(f *testing.F) {
	for _, body := range []string{
		`{"scenario":"torus:w=3,h=3,seed=1"}`,
		`{"scenario":"torus:w=3,h=3,seed=1","scheduler":"random","seed":7}`,
		`{"op":"labels","scenario":"torus:w=3,h=3","engine":"shard","shards":3}`,
		`{"op":"topology","scenario":"torus:w=3,h=3","engine":"sync","timeline":true,"timeline_every":5}`,
		`{"scenario":"torus:w=3,h=3","faults":"loss=20,seed=3","alphabet":true}`,
		`{"scenario":"torus:w=3,h=3","max_steps":10}`,
		`{"scenario":`,
		`{}{}`,
		`{"scenario":"torus","frobnicate":1}`,
		`{"seed":"not-a-number"}`,
		`{}`,
		`{"op":"divine","scenario":"torus:w=3,h=3"}`,
		`{"scenario":"klein-bottle:w=3"}`,
		`{"scenario":"torus:w=3,h=3@drop=0:1"}`,
		`{"network":"not a network"}`,
		`{"network":"anonnet v1\nvertices 3\nroot 0\nterminal 2\nedge 0 1\nedge 1 2\n","message":"hi"}`,
		`{"scenario":"torus:w=3,h=3","network":"x"}`,
		`{"scenario":"torus:w=3,h=3","protocol":"smoke-signals"}`,
		`{"scenario":"torus:w=3,h=3","engine":"warp"}`,
		`{"scenario":"torus:w=3,h=3","engine":"concurrent"}`,
		`{"scenario":"torus:w=3,h=3","engine":"tcp"}`,
		`{"scenario":"torus:w=3,h=3","scheduler":"chaos"}`,
		`{"scenario":"torus:w=3,h=3","faults":"wat"}`,
		`{"scenario":"torus:w=3,h=3","faults":"drop=9999:1"}`,
		`{"scenario":"torus:w=3,h=3","faults":"loss=150"}`,
		`{"scenario":"torus:w=3,h=3","chaos":"disconnect=3"}`,
		`{"scenario":"torus:w=3,h=3","engine":"shard","shards":-2}`,
		`{"scenario":"torus:w=4,h=4"}`,
		`{"scenario":"torus:w=700,h=700"}`,
		`{"scenario":"scalefree:n=99999999999,m=5"}`,
		`{"scenario":"regular:n=10,d=2000"}`,
		`{"scenario":"layereddag:layers=2,width=4,fanout=5000"}`,
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		srv := NewServer(Config{Workers: 1, MaxVertices: 32})
		defer srv.Close()
		h := srv.Handler()
		post := func() *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(body)))
			return rec
		}

		first := post()
		if first.Code != http.StatusOK {
			var env struct {
				Error *Error `json:"error"`
			}
			if err := json.Unmarshal(first.Body.Bytes(), &env); err != nil || env.Error == nil {
				t.Fatalf("status %d body %q is not the error envelope (%v)", first.Code, first.Body, err)
			}
			if !slices.Contains(ErrorCodes(), env.Error.Code) {
				t.Fatalf("unknown error code %q", env.Error.Code)
			}
			if env.Error.Status() != first.Code {
				t.Fatalf("code %q served with status %d, want %d", env.Error.Code, first.Code, env.Error.Status())
			}
			return
		}
		a, b := decodeResponse(t, first.Body.Bytes()), decodeResponse(t, post().Body.Bytes())
		if a.Cache.Status != "miss" || b.Cache.Status != "hit" {
			t.Fatalf("cache statuses %q then %q, want miss then hit", a.Cache.Status, b.Cache.Status)
		}
		if a.Cache.Key != b.Cache.Key || !bytes.Equal(a.Result, b.Result) {
			t.Fatalf("hit does not replay the first response:\n%s\n%s", a.Result, b.Result)
		}
	})
}

func decodeResponse(t *testing.T, data []byte) responseJSON {
	t.Helper()
	var out responseJSON
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("bad 200 body %q: %v", data, err)
	}
	return out
}
