// Command simlint runs the repository's static-analysis suite: custom
// analyzers (internal/lint) that enforce the determinism and
// hardware-model invariants the reproduction's results depend on,
// interprocedurally (a call whose closure reaches a violation is flagged
// with the offending chain).
//
// Usage:
//
//	simlint                                # lint the module, exit 1 on findings
//	simlint -dir path/to/module            # lint another module root
//	simlint -format json                   # machine-readable findings
//	simlint -format sarif                  # SARIF 2.1.0 for code-scanning upload
//	simlint -timing                        # per-analyzer wall time on stderr
//
// Findings print as "file:line: [analyzer] message". A finding is
// suppressed by an adjacent comment with a mandatory reason:
//
//	//simlint:ignore <analyzer> <reason>
//
// A directive on a function declaration additionally suppresses
// interprocedural findings whose call chain passes through it. Any
// active finding fails the run. See EXPERIMENTS.md ("Static analysis").
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"iatsim/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", ".", "module root to lint (any directory inside it works)")
	format := fs.String("format", "text", "output format: text, json, or sarif")
	timing := fs.Bool("timing", false, "report per-analyzer wall time on stderr")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *format != "text" && *format != "json" && *format != "sarif" {
		fmt.Fprintf(stderr, "simlint: unknown -format %q (want text, json, or sarif)\n", *format)
		return 2
	}

	mod, err := lint.LoadModule(*dir)
	if err != nil {
		fmt.Fprintf(stderr, "simlint: %v\n", err)
		return 2
	}
	analyzers := lint.Analyzers()

	// The suite front-loads directive collection and the interprocedural
	// graph; per-analyzer timing brackets only each analyzer's own pass.
	// (The wall clock lives here, not in internal/lint: cmd/ is outside
	// detlint's simulation scope.)
	suite := lint.NewSuite(mod, analyzers)
	for _, a := range analyzers {
		start := time.Now()
		suite.Run(a)
		if *timing {
			fmt.Fprintf(stderr, "simlint: %-10s %8.1fms\n", a.Name, float64(time.Since(start).Microseconds())/1000)
		}
	}
	findings := suite.Finish()

	active := 0
	suppressed := 0
	for _, f := range findings {
		if f.Suppressed {
			suppressed++
		} else {
			active++
		}
	}

	switch *format {
	case "json":
		if err := writeJSON(stdout, mod, findings); err != nil {
			fmt.Fprintf(stderr, "simlint: %v\n", err)
			return 2
		}
	case "sarif":
		if err := writeSARIF(stdout, mod, analyzers, findings); err != nil {
			fmt.Fprintf(stderr, "simlint: %v\n", err)
			return 2
		}
	default:
		for _, f := range findings {
			if f.Suppressed {
				continue
			}
			f.Pos.Filename = relPath(mod.Dir, f.Pos.Filename)
			fmt.Fprintln(stdout, f.String())
		}
	}

	if active > 0 {
		fmt.Fprintf(stderr, "simlint: %d finding(s) in %s\n", active, mod.Path)
		return 1
	}
	if *format == "text" {
		fmt.Fprintf(stdout, "simlint: clean — %d packages, %d analyzers, %d suppression(s)\n",
			len(mod.Pkgs), len(analyzers), suppressed)
	}
	return 0
}

// relPath shortens filenames to module-relative form for stable output.
func relPath(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil && !filepath.IsAbs(rel) {
		return rel
	}
	return path
}

// jsonFinding is the -format json shape of one finding.
type jsonFinding struct {
	File       string `json:"file"`
	Line       int    `json:"line,omitempty"`
	Column     int    `json:"column,omitempty"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Package    string `json:"package,omitempty"`
	Suppressed bool   `json:"suppressed,omitempty"`
	Reason     string `json:"reason,omitempty"`
}

func writeJSON(w io.Writer, mod *lint.Module, findings []lint.Finding) error {
	out := struct {
		Module   string        `json:"module"`
		Findings []jsonFinding `json:"findings"`
	}{Module: mod.Path, Findings: []jsonFinding{}}
	for _, f := range findings {
		out.Findings = append(out.Findings, jsonFinding{
			File:       relPath(mod.Dir, f.Pos.Filename),
			Line:       f.Pos.Line,
			Column:     f.Pos.Column,
			Analyzer:   f.Analyzer,
			Message:    f.Message,
			Package:    f.Package,
			Suppressed: f.Suppressed,
			Reason:     f.Reason,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// SARIF 2.1.0 output — the minimal valid shape code-scanning services
// ingest: one run, one rule per analyzer, one result per finding, with
// suppressed findings carried as inSource suppressions.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID       string             `json:"ruleId"`
	Level        string             `json:"level"`
	Message      sarifMessage       `json:"message"`
	Locations    []sarifLocation    `json:"locations,omitempty"`
	Suppressions []sarifSuppression `json:"suppressions,omitempty"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           *sarifRegion  `json:"region,omitempty"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine,omitempty"`
	StartColumn int `json:"startColumn,omitempty"`
}

type sarifSuppression struct {
	Kind          string `json:"kind"`
	Justification string `json:"justification,omitempty"`
}

func writeSARIF(w io.Writer, mod *lint.Module, analyzers []*lint.Analyzer, findings []lint.Finding) error {
	driver := sarifDriver{Name: "simlint"}
	for _, a := range analyzers {
		driver.Rules = append(driver.Rules, sarifRule{ID: a.Name, ShortDescription: sarifMessage{Text: a.Doc}})
	}
	driver.Rules = append(driver.Rules, sarifRule{
		ID:               lint.MetaAnalyzer,
		ShortDescription: sarifMessage{Text: "directive hygiene and loader diagnostics"},
	})

	results := []sarifResult{}
	for _, f := range findings {
		r := sarifResult{
			RuleID:  f.Analyzer,
			Level:   "error",
			Message: sarifMessage{Text: f.Message},
		}
		if f.Suppressed {
			r.Level = "note"
			r.Suppressions = []sarifSuppression{{Kind: "inSource", Justification: f.Reason}}
		}
		if f.Pos.Filename != "" {
			loc := sarifPhysical{
				ArtifactLocation: sarifArtifact{URI: filepath.ToSlash(relPath(mod.Dir, f.Pos.Filename))},
			}
			if f.Pos.Line > 0 {
				loc.Region = &sarifRegion{StartLine: f.Pos.Line, StartColumn: f.Pos.Column}
			}
			r.Locations = []sarifLocation{{PhysicalLocation: loc}}
		}
		results = append(results, r)
	}

	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs:    []sarifRun{{Tool: sarifTool{Driver: driver}, Results: results}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}
