// Package analysis is a minimal, dependency-free mirror of the
// golang.org/x/tools/go/analysis API: named analyzers running over
// type-checked packages and reporting positioned diagnostics.
//
// The build environment is offline, so the real x/tools module cannot be
// pinned; this package reimplements the slice of the API the repository's
// analyzers (cmd/devil-lint) need on the standard library alone. The
// shapes are kept intentionally compatible — Analyzer{Name, Doc, Run},
// Pass{Fset, Files, Pkg, TypesInfo, Report} — so the analyzers port to
// the real framework by changing one import if the dependency ever
// becomes available.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static analysis: a name, a documentation
// string, and the function that runs it over a single package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and flags. It must be
	// a valid Go identifier.
	Name string
	// Doc is the analyzer's documentation: one summary line, then prose.
	Doc string
	// Run applies the analyzer to a package. It reports findings through
	// pass.Report and returns an error only for operational failures
	// (findings are not errors).
	Run func(pass *Pass) error
}

// Pass provides one analyzer run with a single type-checked package and
// a sink for its findings.
type Pass struct {
	// Analyzer is the analyzer being run.
	Analyzer *Analyzer
	// Fset maps token positions of every file in the project.
	Fset *token.FileSet
	// Files is the package's parsed syntax, comments included.
	Files []*ast.File
	// Pkg is the package's type information.
	Pkg *types.Package
	// TypesInfo records the type-checker's facts about Files.
	TypesInfo *types.Info
	// Report delivers one finding.
	Report func(Diagnostic)
}

// Reportf reports a formatted finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding of an analyzer.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path ("repro/internal/bus"; fixture packages
	// use their bare directory name).
	Path string
	// Dir is the directory holding the sources.
	Dir string
	// GoFiles lists the parsed source files (absolute paths).
	GoFiles []string
	// Fset is the file set shared by every package of one load.
	Fset *token.FileSet
	// Syntax is the parsed source, comments included, parallel to GoFiles.
	Syntax []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// TypesInfo records the type-checker's facts about Syntax.
	TypesInfo *types.Info
}

// Finding is a rendered diagnostic: an analyzer name plus a resolved
// source position, ready for printing or JSON encoding.
type Finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

// String renders "file:line:col: analyzer: message", the format the
// devil-lint driver prints and CI greps.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Column, f.Analyzer, f.Message)
}
