package analysis

import "sort"

// Run applies every analyzer to every package and returns the rendered
// findings sorted by file, position, and analyzer — a deterministic
// order the devil-lint driver prints and tests can pin.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	var findings []Finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Syntax,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
			}
			pass.Report = func(d Diagnostic) {
				pos := pkg.Fset.Position(d.Pos)
				findings = append(findings, Finding{
					Analyzer: a.Name,
					File:     pos.Filename,
					Line:     pos.Line,
					Column:   pos.Column,
					Message:  d.Message,
				})
			}
			if err := a.Run(pass); err != nil {
				return nil, err
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}
