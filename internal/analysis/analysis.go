// Package analysis is govhdl's custom static-analysis suite: a small,
// stdlib-only (go/ast + go/parser + go/types) framework plus the analyzers
// that machine-check the simulator invariants the Go type system cannot see.
//
// The paper's correctness story rests on three such invariants:
//
//   - Virtual time is the lexicographically-ordered pair (PT, LT). Ordering
//     two vtime.VT values field-by-field outside package vtime silently
//     drops the lexicographic tie-break (analyzer vtcompare).
//   - The optimistic engine's rollback/replay is only sound if the
//     deterministic core (kernel, vtime, the pdes event paths) never reads
//     wall-clock time, never consults math/rand, and never lets Go's
//     randomized map iteration order leak into event or trace order
//     (analyzers nondeterminism and maprange).
//   - Pooled Event/Msg objects are safe only under the strict
//     receiver-ownership discipline documented in internal/pdes/pool.go
//     (analyzer poolescape).
//
// Diagnostics can be suppressed — with a written justification — by a
// comment of the form
//
//	//govhdlvet:<directive> <justification>
//
// on the flagged line or the line immediately above it. Each analyzer names
// its directive (vtcompare, nondet, ordered, owner).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
)

// An Analyzer is one independent pass over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -run selections.
	Name string
	// Doc is a one-line description of the enforced invariant.
	Doc string
	// Directive is the suppression directive: a //govhdlvet:<Directive>
	// comment on (or immediately above) a flagged line silences it.
	Directive string
	// Run reports diagnostics through pass.Reportf.
	Run func(pass *Pass)
}

// Analyzers is the suite in its stable reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{VTCompare, Nondeterminism, MapRange, PoolEscape}
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// A Diagnostic is one finding, positioned for file:line:col reporting.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Config scopes the analyzers to the packages whose determinism the engine
// depends on. Paths are exact import paths as loaded.
type Config struct {
	// CorePackages form the deterministic core: no wall-clock reads, no
	// math/rand, no unordered map iteration (nondeterminism, maprange).
	CorePackages []string
	// NondetAllowFiles are base filenames inside core packages that are
	// allowed to touch wall-clock time: the timing shims that measure a
	// run from outside the event loop.
	NondetAllowFiles []string
	// PoolPackages are the packages whose eventPool/msgPool objects the
	// poolescape analyzer tracks.
	PoolPackages []string
	// VTimePackages define the VT type. vtcompare recognizes VT values by
	// these paths and skips analyzing the packages themselves (the
	// comparison methods must compare fields somewhere).
	VTimePackages []string
}

// FixturePrefix is the loaded import-path prefix of the analyzer test
// fixtures. DefaultConfig scopes the fixture packages exactly like the real
// core so `govhdlvet ./internal/analysis/testdata/src/...` exercises every
// analyzer end-to-end under the production driver.
const FixturePrefix = "govhdl/internal/analysis/testdata/src"

// DefaultConfig is the repository's production scoping.
func DefaultConfig() *Config {
	return &Config{
		CorePackages: []string{
			"govhdl/internal/kernel",
			"govhdl/internal/vtime",
			"govhdl/internal/pdes",
			"govhdl/internal/server",
			"govhdl/internal/trace",
			"govhdl/internal/circuits",
			"govhdl/internal/chaos",
			"govhdl/internal/ckptio",
			FixturePrefix + "/nondet_core",
			FixturePrefix + "/maprange_core",
		},
		// watchdog.go hosts the wall-clock stall supervision, which observes
		// progress but never feeds time into event processing; runner.go and
		// seq.go time the run for reporting only.
		NondetAllowFiles: []string{"runner.go", "seq.go", "watchdog.go"},
		PoolPackages: []string{
			"govhdl/internal/pdes",
			FixturePrefix + "/poolescape_pdes",
		},
		VTimePackages: []string{"govhdl/internal/vtime"},
	}
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// IsCore reports whether path belongs to the deterministic core.
func (c *Config) IsCore(path string) bool { return contains(c.CorePackages, path) }

// IsPoolPackage reports whether path is scoped for poolescape.
func (c *Config) IsPoolPackage(path string) bool { return contains(c.PoolPackages, path) }

// IsVTimePackage reports whether path defines the VT type.
func (c *Config) IsVTimePackage(path string) bool { return contains(c.VTimePackages, path) }

// A Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Path     string // import path the package was loaded as
	Pkg      *types.Package
	Info     *types.Info
	Config   *Config

	diags       *[]Diagnostic
	suppressed  map[string]map[int]string // filename -> line -> directive
	suppReady   bool
	suppPattern *regexp.Regexp
}

var directiveRE = regexp.MustCompile(`^//govhdlvet:([a-z]+)`)

// buildSuppressions indexes every //govhdlvet:<directive> comment by file
// and line.
func (p *Pass) buildSuppressions() {
	if p.suppReady {
		return
	}
	p.suppReady = true
	p.suppressed = make(map[string]map[int]string)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := directiveRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				byLine := p.suppressed[pos.Filename]
				if byLine == nil {
					byLine = make(map[int]string)
					p.suppressed[pos.Filename] = byLine
				}
				byLine[pos.Line] = m[1]
			}
		}
	}
}

// Suppressed reports whether a diagnostic at pos is silenced by the pass's
// directive on the same line or the line immediately above.
func (p *Pass) Suppressed(pos token.Pos) bool {
	p.buildSuppressions()
	pp := p.Fset.Position(pos)
	byLine := p.suppressed[pp.Filename]
	if byLine == nil {
		return false
	}
	return byLine[pp.Line] == p.Analyzer.Directive || byLine[pp.Line-1] == p.Analyzer.Directive
}

// Reportf records a diagnostic at pos unless it is suppressed.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.Suppressed(pos) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run applies the analyzers to pkg and returns their diagnostics in
// position order.
func Run(pkg *Package, analyzers []*Analyzer, cfg *Config) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Path:     pkg.Path,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Config:   cfg,
			diags:    &diags,
		}
		a.Run(pass)
	}
	SortDiagnostics(diags)
	return diags
}

// SortDiagnostics orders diagnostics by file, line, column, then analyzer.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
