package genclus_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// documentedPackages are the directories whose exported identifiers form
// the documented surface: the public library facade, the client SDK, the
// network substrate whose types (Network, Builder, Edge, Limits, …) are
// re-exported or returned across the internal boundary, the persistence
// substrate (the snapshot codec whose errors and limits cross the API,
// and the crash-safe blob store genclusd's durability rests on), and the
// online inference engine whose query/assignment types the facade
// re-exports (Assigner, AssignQuery, Assignment, …), the mutation
// subsystem whose element types the SDK aliases (Edge, NewObject, …), the
// JSON scanner every wire decoder embeds, and the metrics registry.
var documentedPackages = []string{".", "client", "internal/deltalog", "internal/hin", "internal/infer", "internal/jsonscan", "internal/metrics", "internal/snapshot", "internal/store"}

// TestExportedIdentifiersAreDocumented is the godoc linter CI runs (the
// repo cannot assume revive/golint binaries exist): every exported
// top-level type, function, method, constant and variable in the
// documented surface must carry a doc comment, and every exported struct
// field or interface method in an exported type must too. The error
// message names the file:line so a failure is a one-hop fix.
func TestExportedIdentifiersAreDocumented(t *testing.T) {
	var missing []string
	report := func(fset *token.FileSet, pos token.Pos, what, name string) {
		p := fset.Position(pos)
		missing = append(missing, fmt.Sprintf("%s:%d: %s %s", p.Filename, p.Line, what, name))
	}

	for _, dir := range documentedPackages {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", dir, err)
		}
		for _, pkg := range pkgs {
			for _, file := range pkg.Files {
				for _, decl := range file.Decls {
					switch d := decl.(type) {
					case *ast.FuncDecl:
						if !d.Name.IsExported() || !exportedReceiver(d) {
							continue
						}
						if d.Doc == nil {
							what := "function"
							if d.Recv != nil {
								what = "method"
							}
							report(fset, d.Pos(), what, d.Name.Name)
						}
					case *ast.GenDecl:
						checkGenDecl(fset, d, report)
					}
				}
			}
		}
	}
	if len(missing) > 0 {
		t.Errorf("%d exported identifiers lack doc comments:\n  %s", len(missing), strings.Join(missing, "\n  "))
	}
}

// exportedReceiver reports whether a function is free-standing or a method
// on an exported type (methods on unexported types are not part of the
// documented surface).
func exportedReceiver(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	typ := d.Recv.List[0].Type
	for {
		switch tt := typ.(type) {
		case *ast.StarExpr:
			typ = tt.X
		case *ast.IndexExpr: // generic receiver
			typ = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}

func checkGenDecl(fset *token.FileSet, d *ast.GenDecl, report func(*token.FileSet, token.Pos, string, string)) {
	for _, spec := range d.Specs {
		switch sp := spec.(type) {
		case *ast.TypeSpec:
			if !sp.Name.IsExported() {
				continue
			}
			if sp.Doc == nil && d.Doc == nil {
				report(fset, sp.Pos(), "type", sp.Name.Name)
			}
			checkTypeMembers(fset, sp, report)
		case *ast.ValueSpec:
			// A doc comment on the const/var group covers its members.
			if sp.Doc != nil || d.Doc != nil {
				continue
			}
			for _, name := range sp.Names {
				if name.IsExported() {
					report(fset, name.Pos(), "const/var", name.Name)
				}
			}
		}
	}
}

// checkTypeMembers requires docs on exported struct fields and interface
// methods of an exported type (a same-line comment counts — hin uses that
// style for dense field lists).
func checkTypeMembers(fset *token.FileSet, sp *ast.TypeSpec, report func(*token.FileSet, token.Pos, string, string)) {
	var fields *ast.FieldList
	var what string
	switch tt := sp.Type.(type) {
	case *ast.StructType:
		fields, what = tt.Fields, "field"
	case *ast.InterfaceType:
		fields, what = tt.Methods, "interface method"
	default:
		return
	}
	for _, f := range fields.List {
		if f.Doc != nil || f.Comment != nil {
			continue
		}
		for _, name := range f.Names {
			if name.IsExported() {
				report(fset, name.Pos(), what, sp.Name.Name+"."+name.Name)
			}
		}
	}
}
