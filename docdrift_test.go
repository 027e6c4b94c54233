// This file is an external test package (anonnet_test, not anonnet) on
// purpose: it drift-guards documentation against internal/serve, which
// imports the facade — an internal test file could not import it without a
// cycle through the facade's own test binary.
package anonnet_test

import (
	"bufio"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	anonnet "repro"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/sim"
)

// TestSchedulerDocMatrixInSync is the drift guard for the hand-written
// adversary table in the package documentation: the set of scheduler names
// it lists must exactly match sim.SchedulerNames(). Registering a scheduler
// without documenting it (or vice versa) fails here, not in a code review.
func TestSchedulerDocMatrixInSync(t *testing.T) {
	documented := docSchedulerTable(t)
	registered := sim.SchedulerNames()
	sort.Strings(documented)
	if strings.Join(documented, " ") != strings.Join(registered, " ") {
		t.Fatalf("anonnet package doc adversary table out of sync with the registry\n doc:      %v\n registry: %v",
			documented, registered)
	}
}

// docSchedulerTable extracts the scheduler names from the doc-comment table
// in anonnet.go: the tab-indented lines following the "-sched CLI flags"
// marker, whose first field is the scheduler name.
func docSchedulerTable(t *testing.T) []string {
	t.Helper()
	f, err := os.Open("anonnet.go")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	var names []string
	inTable := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "package ") {
			break
		}
		if strings.Contains(line, "-sched CLI flags") {
			inTable = true
			continue
		}
		if !inTable {
			continue
		}
		switch {
		case strings.HasPrefix(line, "//\t"):
			fields := strings.Fields(strings.TrimPrefix(line, "//\t"))
			if len(fields) > 0 {
				names = append(names, fields[0])
			}
		case line == "//" && len(names) == 0:
			// blank comment line between the marker and the table
		default:
			if len(names) > 0 {
				inTable = false
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("could not locate the adversary table in the anonnet package doc")
	}
	return names
}

// markedTableNames extracts the first backtick-quoted cell of every table
// row between the given begin/end HTML-comment markers of a markdown file.
func markedTableNames(t *testing.T, path, begin, end string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	in := false
	for _, line := range strings.Split(string(data), "\n") {
		switch {
		case strings.Contains(line, begin):
			in = true
		case strings.Contains(line, end):
			in = false
		case in && strings.HasPrefix(line, "| `"):
			rest := strings.TrimPrefix(line, "| `")
			if i := strings.IndexByte(rest, '`'); i > 0 {
				names = append(names, rest[:i])
			}
		}
	}
	if len(names) == 0 {
		t.Fatalf("no %s...%s table rows found in %s", begin, end, path)
	}
	return names
}

// TestArchitectureDocSchedulerMatrixInSync drift-guards the scheduler table
// of docs/ARCHITECTURE.md against the sim registry: every registered
// adversary must be documented there, and nothing else.
func TestArchitectureDocSchedulerMatrixInSync(t *testing.T) {
	documented := markedTableNames(t, "docs/ARCHITECTURE.md",
		"matrix:schedulers:begin", "matrix:schedulers:end")
	sort.Strings(documented)
	registered := sim.SchedulerNames()
	if strings.Join(documented, " ") != strings.Join(registered, " ") {
		t.Fatalf("docs/ARCHITECTURE.md scheduler table out of sync with the registry\n doc:      %v\n registry: %v",
			documented, registered)
	}
}

// TestArchitectureDocEngineMatrixInSync drift-guards the engine table of
// docs/ARCHITECTURE.md against the facade's engine list.
func TestArchitectureDocEngineMatrixInSync(t *testing.T) {
	documented := markedTableNames(t, "docs/ARCHITECTURE.md",
		"matrix:engines:begin", "matrix:engines:end")
	registered := append([]string(nil), anonnet.EngineNames()...)
	sort.Strings(documented)
	sort.Strings(registered)
	if strings.Join(documented, " ") != strings.Join(registered, " ") {
		t.Fatalf("docs/ARCHITECTURE.md engine table out of sync with EngineNames\n doc:      %v\n engines:  %v",
			documented, registered)
	}
}

// TestArchitectureDocFaultColumnInSync drift-guards the fault-injection
// column of the engine matrix: every engine row must state its fault
// behavior. The engine set itself is guarded above; this guards the column —
// sim.Options.Faults applies to every engine (the cross-engine conformance
// suite enforces the semantics; this enforces the documentation).
func TestArchitectureDocFaultColumnInSync(t *testing.T) {
	data, err := os.ReadFile("docs/ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	in, col := false, -1
	rows := 0
	for _, line := range strings.Split(string(data), "\n") {
		switch {
		case strings.Contains(line, "matrix:engines:begin"):
			in = true
		case strings.Contains(line, "matrix:engines:end"):
			in = false
		case in && strings.HasPrefix(line, "| engine"):
			for i, cell := range strings.Split(line, "|") {
				if strings.Contains(cell, "fault injection") {
					col = i
				}
			}
			if col < 0 {
				t.Fatalf("engine matrix header lacks a fault-injection column: %q", line)
			}
		case in && strings.HasPrefix(line, "| `"):
			rows++
			cells := strings.Split(line, "|")
			if col < 0 || col >= len(cells) || strings.TrimSpace(cells[col]) == "" {
				t.Errorf("engine row lacks a fault-injection cell: %q", line)
			}
		}
	}
	if rows == 0 {
		t.Fatal("no engine rows found between the matrix:engines markers")
	}
}

// jsonTagsOf collects every `json` tag reachable from t, recursing through
// nested structs, slices, and arrays — the full field vocabulary a marshaled
// value can emit.
func jsonTagsOf(t reflect.Type, into map[string]bool) {
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Array:
		jsonTagsOf(t.Elem(), into)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			tag, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if tag == "" || tag == "-" {
				continue
			}
			into[tag] = true
			jsonTagsOf(f.Type, into)
		}
	}
}

// TestObsJSONFieldsDocumented drift-guards the telemetry schema table in
// docs/OBSERVABILITY.md against obs.Report: every JSON field a report can
// emit must be documented, and nothing else.
func TestObsJSONFieldsDocumented(t *testing.T) {
	documented := markedTableNames(t, "docs/OBSERVABILITY.md",
		"obs:fields:begin", "obs:fields:end")
	sort.Strings(documented)

	tags := map[string]bool{}
	jsonTagsOf(reflect.TypeOf(obs.Report{}), tags)
	var want []string
	for tag := range tags {
		want = append(want, tag)
	}
	sort.Strings(want)

	if strings.Join(documented, " ") != strings.Join(want, " ") {
		t.Fatalf("docs/OBSERVABILITY.md schema table out of sync with obs.Report\n doc:    %v\n struct: %v",
			documented, want)
	}
}

// TestObsDocSchemaVersionInSync: the doc must state the exact current
// timeline schema version, so a schema bump cannot ship with a stale spec.
func TestObsDocSchemaVersionInSync(t *testing.T) {
	data, err := os.ReadFile("docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("`schema_version` is currently **%d**", obs.TimelineSchemaVersion)
	if !strings.Contains(string(data), want) {
		t.Fatalf("docs/OBSERVABILITY.md does not state the current schema version; expected %q", want)
	}
}

// TestArchitectureDocObservabilityColumnInSync drift-guards the telemetry
// column of the engine matrix: every engine row must state how it fills the
// obs layer (sim.Options.Obs reaches every engine; the conformance obs tests
// enforce the semantics, this enforces the documentation).
func TestArchitectureDocObservabilityColumnInSync(t *testing.T) {
	data, err := os.ReadFile("docs/ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	in, col := false, -1
	rows := 0
	for _, line := range strings.Split(string(data), "\n") {
		switch {
		case strings.Contains(line, "matrix:engines:begin"):
			in = true
		case strings.Contains(line, "matrix:engines:end"):
			in = false
		case in && strings.HasPrefix(line, "| engine"):
			for i, cell := range strings.Split(line, "|") {
				if strings.Contains(cell, "telemetry") {
					col = i
				}
			}
			if col < 0 {
				t.Fatalf("engine matrix header lacks a telemetry column: %q", line)
			}
		case in && strings.HasPrefix(line, "| `"):
			rows++
			cells := strings.Split(line, "|")
			if col < 0 || col >= len(cells) || strings.TrimSpace(cells[col]) == "" {
				t.Errorf("engine row lacks a telemetry cell: %q", line)
			}
		}
	}
	if rows == 0 {
		t.Fatal("no engine rows found between the matrix:engines markers")
	}
}

// TestServerDocKeyFieldsInSync drift-guards the cache-key tuple table of
// docs/SERVER.md against serve.Key itself: every field of the purity tuple
// must be documented, and nothing else. Together with the key-completeness
// property test (internal/serve), this closes the loop request field →
// cache key → documentation.
func TestServerDocKeyFieldsInSync(t *testing.T) {
	documented := markedTableNames(t, "docs/SERVER.md",
		"server:key:begin", "server:key:end")
	sort.Strings(documented)

	rt := reflect.TypeOf(serve.Key{})
	var want []string
	for i := 0; i < rt.NumField(); i++ {
		want = append(want, rt.Field(i).Name)
	}
	sort.Strings(want)

	if strings.Join(documented, " ") != strings.Join(want, " ") {
		t.Fatalf("docs/SERVER.md cache-key table out of sync with serve.Key\n doc:    %v\n struct: %v",
			documented, want)
	}
}

// TestServerDocErrorCodesInSync drift-guards the error-code table of
// docs/SERVER.md against serve.ErrorCodes(): every code the API can return
// must be documented with its status, and nothing else.
func TestServerDocErrorCodesInSync(t *testing.T) {
	documented := markedTableNames(t, "docs/SERVER.md",
		"server:errors:begin", "server:errors:end")
	sort.Strings(documented)
	registered := append([]string(nil), serve.ErrorCodes()...)
	sort.Strings(registered)
	if strings.Join(documented, " ") != strings.Join(registered, " ") {
		t.Fatalf("docs/SERVER.md error-code table out of sync with serve.ErrorCodes\n doc:   %v\n codes: %v",
			documented, registered)
	}
}

// TestScenariosDocFaultTermsInSync drift-guards the fault/churn grammar
// table of docs/SCENARIOS.md against scenario.FaultTerms(): every term the
// parser accepts must be documented there, and nothing else. Teaching
// ParseFaults a new term without specifying it (or documenting a term the
// parser dropped) fails here, not when a user's spec is rejected.
func TestScenariosDocFaultTermsInSync(t *testing.T) {
	documented := markedTableNames(t, "docs/SCENARIOS.md",
		"scenarios:terms:begin", "scenarios:terms:end")
	sort.Strings(documented)
	registered := append([]string(nil), scenario.FaultTerms()...)
	sort.Strings(registered)
	if strings.Join(documented, " ") != strings.Join(registered, " ") {
		t.Fatalf("docs/SCENARIOS.md fault-term table out of sync with scenario.FaultTerms\n doc:   %v\n terms: %v",
			documented, registered)
	}
}

// TestScenariosDocFamiliesInSync drift-guards the family table of
// docs/SCENARIOS.md against the scenario registry.
func TestScenariosDocFamiliesInSync(t *testing.T) {
	documented := markedTableNames(t, "docs/SCENARIOS.md",
		"scenarios:families:begin", "scenarios:families:end")
	if got, want := strings.Join(documented, " "), strings.Join(scenario.Names(), " "); got != want {
		t.Fatalf("docs/SCENARIOS.md family table out of sync with scenario.Names\n doc:      %s\n registry: %s", got, want)
	}
}

// TestArchitectureDocChurnColumnInSync drift-guards the churn column of the
// engine matrix: every engine row must state how crash/recover/cut/join
// churn behaves there. The cross-engine churn conformance suite enforces
// the semantics; this enforces the documentation.
func TestArchitectureDocChurnColumnInSync(t *testing.T) {
	data, err := os.ReadFile("docs/ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	in, col := false, -1
	rows := 0
	for _, line := range strings.Split(string(data), "\n") {
		switch {
		case strings.Contains(line, "matrix:engines:begin"):
			in = true
		case strings.Contains(line, "matrix:engines:end"):
			in = false
		case in && strings.HasPrefix(line, "| engine"):
			for i, cell := range strings.Split(line, "|") {
				if strings.Contains(cell, "churn") {
					col = i
				}
			}
			if col < 0 {
				t.Fatalf("engine matrix header lacks a churn column: %q", line)
			}
		case in && strings.HasPrefix(line, "| `"):
			rows++
			cells := strings.Split(line, "|")
			if col < 0 || col >= len(cells) || strings.TrimSpace(cells[col]) == "" {
				t.Errorf("engine row lacks a churn cell: %q", line)
			}
		}
	}
	if rows == 0 {
		t.Fatal("no engine rows found between the matrix:engines markers")
	}
}

// TestTraceFormatDocVersionInSync drift-guards docs/TRACE_FORMAT.md against
// replay.FormatVersion: the spec must state the exact current version, so a
// codec bump cannot ship with a stale spec.
func TestTraceFormatDocVersionInSync(t *testing.T) {
	data, err := os.ReadFile("docs/TRACE_FORMAT.md")
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("The current `FormatVersion` is **%d**.", replay.FormatVersion)
	if !strings.Contains(string(data), want) {
		t.Fatalf("docs/TRACE_FORMAT.md does not state the current format version; expected the sentence %q", want)
	}
}
