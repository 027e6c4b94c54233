package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

// capture runs anoncast with args and returns what it printed.
func capture(t *testing.T, args ...string) (string, error) {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	runErr := run(parseFlags(args))
	os.Stdout = stdout
	data, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data), runErr
}

// TestTCPDefaultIsOneWorkerPerVertex runs the tcp engine with every flag
// but the network at its default: the run must use the engine's own
// default wiring (one worker per vertex, reported as one shard), not the
// shard engine's DefaultShards partition.
func TestTCPDefaultIsOneWorkerPerVertex(t *testing.T) {
	obs := filepath.Join(t.TempDir(), "obs.json")
	p := parseFlags([]string{"-graph", "ring:n=6", "-engine", "tcp", "-obs", obs})
	if err := run(p); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(obs)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"shards": 1,`) {
		t.Fatalf("timeline does not report one shard:\n%s", data)
	}
}

// TestEveryScenarioFamily builds every registry family at its defaults and
// broadcasts on it end to end through the command line, on the sequential
// and the sharded engine.
func TestEveryScenarioFamily(t *testing.T) {
	for _, fam := range anonnet.ScenarioFamilies() {
		for _, eng := range []string{"seq", "shard"} {
			out, err := capture(t, "-graph", fam, "-engine", eng, "-msg", "smoke")
			if err != nil {
				t.Fatalf("-graph %s -engine %s: %v\n%s", fam, eng, err, out)
			}
			if !strings.Contains(out, "terminated:      true") {
				t.Fatalf("-graph %s -engine %s did not terminate:\n%s", fam, eng, out)
			}
		}
	}
}

// TestSaveIsTheSpecNetwork: -save writes the spec's network text, name
// included, and a trace recorded on it embeds the same text, for a random
// and a deterministic family.
func TestSaveIsTheSpecNetwork(t *testing.T) {
	for _, spec := range []string{"randnet:n=8,extra=8,tfrac=20,seed=3", "karytree:h=2,d=3"} {
		dir := t.TempDir()
		save, trace := filepath.Join(dir, "net.txt"), filepath.Join(dir, "run.trace")
		if _, err := capture(t, "-graph", spec, "-save", save, "-record", trace); err != nil {
			t.Fatal(err)
		}
		want, err := anonnet.ScenarioNetwork(spec)
		if err != nil {
			t.Fatal(err)
		}
		saved, err := os.ReadFile(save)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saved, want.MarshalText()) {
			t.Fatalf("%s: -save wrote\n%s\nthe spec's network is\n%s", spec, saved, want.MarshalText())
		}
		data, err := os.ReadFile(trace)
		if err != nil {
			t.Fatal(err)
		}
		td, err := anonnet.DecodeTrace(data)
		if err != nil {
			t.Fatal(err)
		}
		net, err := td.Network()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(net.MarshalText(), saved) {
			t.Fatalf("%s: the trace embeds\n%s\n-save wrote\n%s", spec, net.MarshalText(), saved)
		}
	}
}

// TestOps runs label assignment and topology extraction: every internal
// vertex gets a label, the DOT output carries them, and the extracted map
// is isomorphic to the network. A recorded labels trace replays as labels.
func TestOps(t *testing.T) {
	dir := t.TempDir()
	dot, trace := filepath.Join(dir, "net.dot"), filepath.Join(dir, "labels.trace")
	out, err := capture(t, "-graph", "randnet:n=10,extra=12,seed=5", "-op", "labels", "-dot", dot, "-record", trace)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "protocol:        labelcast") || !strings.Contains(out, "labels:          10 assigned") {
		t.Fatalf("labels op output:\n%s", out)
	}
	data, err := os.ReadFile(dot)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `\n[0`) {
		t.Fatalf("DOT output carries no labels:\n%s", data)
	}
	out, err = capture(t, "-replay", trace)
	if err != nil || !strings.Contains(out, "labels:          10 assigned") {
		t.Fatalf("replaying the labels trace: %v\n%s", err, out)
	}

	out, err = capture(t, "-graph", "ring:n=5", "-op", "topology", "-engine", "shard")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"protocol:        mapcast", "mapping:         extracted |V|=7 |E|=11", "isomorphic:      true"} {
		if !strings.Contains(out, want) {
			t.Fatalf("topology op output lacks %q:\n%s", want, out)
		}
	}
}
