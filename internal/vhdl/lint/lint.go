// Package lint statically analyzes user VHDL designs before any event is
// scheduled: the costliest simulation failures (multiple drivers losing
// updates, incomplete sensitivity lists, delta-cycle livelock) are visible
// in the parse tree alone.
//
// The analysis runs in two phases. First a fact base is extracted from the
// parsed AST — per-process driven and read signals, sensitivity lists, wait
// statements, port modes, declared-vs-used signals (facts.go). Then
// independent rule passes walk the facts (rules.go); each rule is registered
// behind a stable ID so later policies drop in without touching the driver.
//
// Diagnostics carry exact source spans (vhdl.Pos), a severity, and a
// suggestion, and render in vet format (file:line:col: severity: message
// [rule]) or as JSON. The JSON writer is the single serialization point:
// `pvsim -vet-json` and govhdld's /v1/lint endpoint both call WriteJSON, so
// the two surfaces emit byte-identical reports for the same design.
package lint

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"govhdl/internal/vhdl"
)

// Severity classifies a diagnostic.
type Severity uint8

const (
	// SevWarning marks likely-unintended but simulatable constructs.
	SevWarning Severity = iota
	// SevError marks constructs that lose data or hang when simulated.
	SevError
)

func (s Severity) String() string {
	if s == SevError {
		return "error"
	}
	return "warning"
}

// MarshalJSON renders the severity as its name.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// Diagnostic is one finding.
type Diagnostic struct {
	Rule       string   // stable rule ID, e.g. "V001"
	Severity   Severity // error or warning
	File       string
	Pos        vhdl.Pos // exact source span start
	Message    string
	Suggestion string
}

// String renders in vet format: file:line:col: severity: message [rule].
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s [%s]",
		d.File, d.Pos.Line, d.Pos.Col, d.Severity, d.Message, d.Rule)
}

// jsonDiag is the wire shape: the position flattens to line/col.
type jsonDiag struct {
	Rule       string `json:"rule"`
	Severity   string `json:"severity"`
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Message    string `json:"message"`
	Suggestion string `json:"suggestion,omitempty"`
}

// MarshalJSON flattens the source position into line/col fields.
func (d Diagnostic) MarshalJSON() ([]byte, error) {
	return json.Marshal(jsonDiag{
		Rule: d.Rule, Severity: d.Severity.String(), File: d.File,
		Line: d.Pos.Line, Col: d.Pos.Col,
		Message: d.Message, Suggestion: d.Suggestion,
	})
}

// UnmarshalJSON is the inverse of MarshalJSON (clients decoding reports).
func (d *Diagnostic) UnmarshalJSON(b []byte) error {
	var j jsonDiag
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	sev := SevWarning
	if j.Severity == "error" {
		sev = SevError
	}
	*d = Diagnostic{
		Rule: j.Rule, Severity: sev, File: j.File,
		Pos:     vhdl.Pos{Line: j.Line, Col: j.Col},
		Message: j.Message, Suggestion: j.Suggestion,
	}
	return nil
}

// A Rule is one registered policy check.
type Rule struct {
	// ID is the stable identifier ("V001"); it never changes once released.
	ID string
	// Name is a short slug for humans ("multiple-drivers").
	Name string
	// Doc is a one-line description.
	Doc string
	// Severity is the severity of every diagnostic the rule reports.
	Severity Severity
	// Run reports the rule's findings over the fact base.
	Run func(f *Facts, report func(Diagnostic))
}

var registry []*Rule

// Register adds a rule; duplicate IDs are a programming error.
func Register(r *Rule) {
	for _, have := range registry {
		if have.ID == r.ID {
			panic("lint: duplicate rule ID " + r.ID)
		}
	}
	registry = append(registry, r)
	sort.Slice(registry, func(i, j int) bool { return registry[i].ID < registry[j].ID })
}

// Rules lists the registered rules sorted by ID.
func Rules() []*Rule { return append([]*Rule(nil), registry...) }

// Analyze runs every registered rule over the parsed files (one design set:
// instances resolve across files) and returns the findings sorted by
// position.
func Analyze(files ...*vhdl.DesignFile) []Diagnostic {
	return AnalyzeWith(registry, files...)
}

// ParseAndAnalyze parses the sources and runs Analyze over the result. It
// returns the parsed files too, so a caller that goes on to elaborate hands
// the same trees to vhdl.Library.Add instead of parsing a second time. A
// parse error stops the pass.
func ParseAndAnalyze(srcs []vhdl.Source) ([]*vhdl.DesignFile, []Diagnostic, error) {
	files, err := vhdl.ParseAll(srcs)
	if err != nil {
		return nil, nil, err
	}
	return files, Analyze(files...), nil
}

// AnalyzeWith runs only the given rules.
func AnalyzeWith(rules []*Rule, files ...*vhdl.DesignFile) []Diagnostic {
	facts := ExtractFacts(files)
	var diags []Diagnostic
	for _, r := range rules {
		rule := r
		r.Run(facts, func(d Diagnostic) {
			d.Rule = rule.ID
			d.Severity = rule.Severity
			diags = append(diags, d)
		})
	}
	SortDiagnostics(diags)
	return diags
}

// SortDiagnostics orders findings by file, position, then rule ID, so output
// is deterministic regardless of rule registration or map iteration order.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
}

// Counts tallies findings by severity.
func Counts(diags []Diagnostic) (errors, warnings int) {
	for _, d := range diags {
		if d.Severity == SevError {
			errors++
		} else {
			warnings++
		}
	}
	return errors, warnings
}

// HasErrors reports whether any finding is error-severity.
func HasErrors(diags []Diagnostic) bool {
	e, _ := Counts(diags)
	return e > 0
}

// Report is the JSON document shape shared by every lint surface.
type Report struct {
	Diagnostics []Diagnostic `json:"diagnostics"`
	Errors      int          `json:"errors"`
	Warnings    int          `json:"warnings"`
}

// Decode parses a JSON report produced by WriteJSON (clients reading the
// CLI's -vet-json output or the server's /v1/lint reply).
func (r *Report) Decode(b []byte) error { return json.Unmarshal(b, r) }

// WriteJSON serializes findings. This is the only JSON serialization point:
// the pvsim CLI and the govhdld lint endpoint both call it, which is what
// makes their reports byte-identical for the same design.
func WriteJSON(w io.Writer, diags []Diagnostic) error {
	if diags == nil {
		diags = []Diagnostic{}
	}
	e, warn := Counts(diags)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Report{Diagnostics: diags, Errors: e, Warnings: warn})
}

// WriteText renders findings in vet format, one per line.
func WriteText(w io.Writer, diags []Diagnostic) {
	for _, d := range diags {
		fmt.Fprintln(w, d.String())
		if d.Suggestion != "" {
			fmt.Fprintf(w, "\tsuggestion: %s\n", d.Suggestion)
		}
	}
}
