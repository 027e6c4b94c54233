package scenario

import "testing"

// FuzzParseFaults fuzzes the fault/churn grammar, the input surface of the
// churn benchmark and of every -faults flag. ParseFaults must never panic,
// and on every spec it accepts, rendering and re-parsing must be a fixed
// point: ParseFaults(p.Canonical()) succeeds and renders the same string, so
// parse∘canonical = parse and Canonical is idempotent.
func FuzzParseFaults(f *testing.F) {
	for _, spec := range []string{
		"",
		"drop=0:1",
		"loss=10,seed=7",
		"crash=3:0",
		"crash=3:1,recover=3:4",
		"cut=2:3",
		"join=1:2,cut=1:5",
		"lossat=5:40,lossat=2:10,loss=3",
		"crash=21:1,recover=21:3,crash=32:1,recover=32:3,cut=16:2",
		"drop=0:1,drop=0:-1,seed=9",
		" drop=+4:2 ",
		"bogus=1",
		"drop=1",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseFaults(spec)
		if err != nil {
			return
		}
		canon := p.Canonical()
		q, err := ParseFaults(canon)
		if err != nil {
			t.Fatalf("ParseFaults(%q) accepted, but its canonical form %q is rejected: %v", spec, canon, err)
		}
		if again := q.Canonical(); again != canon {
			t.Fatalf("Canonical is not a fixed point for %q: %q, then %q", spec, canon, again)
		}
	})
}
