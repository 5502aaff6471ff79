// Package core is the public facade of the Devil compiler: parse a
// specification, check it, link it to a bus for interpretive access, or
// generate Go stub code.
//
// The pipeline mirrors the paper's toolchain:
//
//	source (.dil)
//	   │  Parse            — syntax (package parser)
//	   ▼
//	*ast.Device
//	   │  Check/Compile    — §3.1 consistency properties (package sema)
//	   ▼
//	*sema.Device ──Link──▶ *exec.Device      interpretive stubs (package exec)
//	        │
//	        └───GenerateGo─▶ Go source       compiled stubs (package codegen)
//
// Typical use:
//
//	spec, err := core.Compile(src)
//	dev, err := core.Link(spec, bus, map[string]uint32{"base": 0x23c}, core.Options{Debug: true})
//	v, err := dev.Get("signature")
package core

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/devil/ast"
	"repro/internal/devil/diag"
	"repro/internal/devil/exec"
	"repro/internal/devil/parser"
	"repro/internal/devil/scanner"
	"repro/internal/devil/sema"
	"repro/internal/devil/token"
)

// Options configures linked devices; see exec.Options.
type Options = exec.Options

// Parse performs lexical and syntactic analysis only.
func Parse(src []byte) (*ast.Device, error) {
	dev, errs := parser.Parse(src)
	if err := errs.Err(); err != nil {
		return nil, fmt.Errorf("devil: %w", err)
	}
	return dev, nil
}

// Compile parses and fully checks a specification, returning the resolved
// device model.
func Compile(src []byte) (*sema.Device, error) {
	spec, diags := CompileDiags(src)
	if err := diags.Err(); err != nil {
		return nil, fmt.Errorf("devil: %w", err)
	}
	return spec, nil
}

// CompileDiags is Compile exposing the structured diagnostics: syntax
// errors surface as E001, resolution and consistency errors carry their
// sema codes. The device is nil when (and only when) the list has
// errors.
func CompileDiags(src []byte) (*sema.Device, diag.List) {
	return CompileTokens(scanner.ScanAll(src))
}

// CompileTokens is CompileDiags of a scanned specification: toks and
// scanErrs as scanner.ScanAll returns them (see parser.ParseTokens).
func CompileTokens(toks []token.Token, scanErrs scanner.ErrorList) (*sema.Device, diag.List) {
	astDev, perrs := parser.ParseTokens(toks, scanErrs)
	if len(perrs) > 0 {
		return nil, syntaxDiags(perrs)
	}
	spec, diags := sema.Resolve(astDev)
	if diags.HasErrors() {
		return nil, diags
	}
	return spec, diags
}

// syntaxDiags converts scanner/parser errors into E001 diagnostics.
func syntaxDiags(errs scanner.ErrorList) diag.List {
	var diags diag.List
	for _, e := range errs {
		diags.Add("E001", e.Pos, "%s", e.Msg)
	}
	return diags
}

// Check compiles the source and returns only the diagnostics, for linting.
func Check(src []byte) error {
	_, err := Compile(src)
	return err
}

// Link binds a compiled specification to a bus at the given port base
// addresses, yielding interpretive get/set stubs.
func Link(spec *sema.Device, b bus.Bus, bases map[string]uint32, opts Options) (*exec.Device, error) {
	return exec.Link(spec, b, bases, opts)
}

// MustCompile is Compile for specifications known to be valid (embedded
// library specs, tests); it panics on error.
func MustCompile(src []byte) *sema.Device {
	spec, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return spec
}
