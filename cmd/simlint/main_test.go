package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// chainmod is a fixture module seeded with interprocedural findings —
// the test double for a dirty tree.
const chainmod = "../../internal/lint/testdata/chainmod"

// TestCleanTreeExitsZero runs the linter over this repository: HEAD must
// be clean (the same invariant `make lint` enforces).
func TestCleanTreeExitsZero(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-dir", "../.."}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d on HEAD, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "simlint: clean") {
		t.Fatalf("missing clean summary:\n%s", out.String())
	}
}

// TestJSONFormat checks the machine-readable finding list.
func TestJSONFormat(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-dir", chainmod, "-format", "json"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d on seeded fixture, want 1", code)
	}
	var doc struct {
		Module   string `json:"module"`
		Findings []struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		} `json:"findings"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if doc.Module != "iatsim" || len(doc.Findings) == 0 {
		t.Fatalf("unexpected JSON document: %+v", doc)
	}
	for _, f := range doc.Findings {
		if f.Analyzer == "" || f.Message == "" || f.File == "" {
			t.Fatalf("finding missing fields: %+v", f)
		}
		if filepath.IsAbs(f.File) {
			t.Fatalf("finding path should be module-relative: %q", f.File)
		}
	}
}

// TestSARIFFormat validates the structural SARIF 2.1.0 contract: schema
// and version fields, one run, a rule per analyzer, results referencing
// declared rules with physical locations, and suppressed findings
// carried as inSource suppressions.
func TestSARIFFormat(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-dir", chainmod, "-format", "sarif"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d on seeded fixture, want 1", code)
	}
	var doc struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID               string `json:"id"`
						ShortDescription struct {
							Text string `json:"text"`
						} `json:"shortDescription"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID  string `json:"ruleId"`
				Level   string `json:"level"`
				Message struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
				Suppressions []struct {
					Kind          string `json:"kind"`
					Justification string `json:"justification"`
				} `json:"suppressions"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("invalid SARIF JSON: %v", err)
	}
	if doc.Version != "2.1.0" || !strings.Contains(doc.Schema, "sarif-2.1.0") {
		t.Fatalf("wrong SARIF version/schema: %q %q", doc.Version, doc.Schema)
	}
	if len(doc.Runs) != 1 {
		t.Fatalf("want exactly 1 run, got %d", len(doc.Runs))
	}
	run0 := doc.Runs[0]
	if run0.Tool.Driver.Name != "simlint" {
		t.Fatalf("driver name %q", run0.Tool.Driver.Name)
	}
	rules := map[string]bool{}
	for _, r := range run0.Tool.Driver.Rules {
		if r.ShortDescription.Text == "" {
			t.Fatalf("rule %s lacks a description", r.ID)
		}
		rules[r.ID] = true
	}
	for _, name := range []string{"detlint", "maporder", "msrlint", "seedflow", "statelint", "telemlint", "simlint"} {
		if !rules[name] {
			t.Fatalf("SARIF rules missing %q", name)
		}
	}
	if len(run0.Results) == 0 {
		t.Fatal("seeded fixture should produce results")
	}
	sawSuppressed := false
	for _, r := range run0.Results {
		if !rules[r.RuleID] {
			t.Fatalf("result references undeclared rule %q", r.RuleID)
		}
		if r.Message.Text == "" {
			t.Fatalf("result without message: %+v", r)
		}
		if len(r.Locations) == 0 || r.Locations[0].PhysicalLocation.ArtifactLocation.URI == "" {
			t.Fatalf("result without location: %+v", r)
		}
		if strings.Contains(r.Locations[0].PhysicalLocation.ArtifactLocation.URI, "\\") {
			t.Fatalf("SARIF URI must use forward slashes: %+v", r.Locations[0])
		}
		if len(r.Suppressions) > 0 {
			sawSuppressed = true
			if r.Level != "note" || r.Suppressions[0].Kind != "inSource" || r.Suppressions[0].Justification == "" {
				t.Fatalf("suppressed result malformed: %+v", r)
			}
		}
	}
	if !sawSuppressed {
		t.Fatal("chainmod has suppressed findings; SARIF should carry them as suppressions")
	}
}

// TestTimingFlag pins the per-analyzer timing lines.
func TestTimingFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	run([]string{"-dir", chainmod, "-timing"}, &out, &errOut)
	for _, name := range []string{"detlint", "seedflow", "telemlint"} {
		if !strings.Contains(errOut.String(), name) {
			t.Fatalf("timing output missing %s:\n%s", name, errOut.String())
		}
	}
	if !strings.Contains(errOut.String(), "ms") {
		t.Fatalf("timing output lacks a unit:\n%s", errOut.String())
	}
}

// TestUsageErrorsExitTwo pins the usage-error exit code.
func TestUsageErrorsExitTwo(t *testing.T) {
	cases := [][]string{
		{"-dir", "/nonexistent-simlint-dir"},
		{"-format", "xml"},
		{"-baseline", "x.csv"},
	}
	for _, args := range cases {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Fatalf("args %v: exit %d, want 2", args, code)
		}
	}
}
