package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTCPDefaultIsOneWorkerPerVertex runs the tcp engine with every flag
// but the topology at its default: the run must use the engine's own
// default wiring (one worker per vertex, reported as one shard), not the
// shard engine's DefaultShards partition.
func TestTCPDefaultIsOneWorkerPerVertex(t *testing.T) {
	obs := filepath.Join(t.TempDir(), "obs.json")
	p := parseFlags([]string{"-topo", "ring", "-n", "6", "-engine", "tcp", "-obs", obs})
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
