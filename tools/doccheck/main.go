// Command doccheck fails when an exported identifier in the audited
// packages lacks a doc comment. It guards the public minnow package, the
// benchmark catalogue (internal/kernels), the event loop and the harness
// (internal/sim, internal/harness), and the observability,
// statistics, plan, and service surfaces (internal/obs, internal/stats,
// internal/prof, internal/inspect, internal/plan, internal/fault,
// internal/arrival, internal/service and its cache, journal, and tracing
// subpackages), whose doc comments carry the determinism and
// observe-only contracts the rest of the simulator is written against;
// the CI docs job runs it on every push.
//
// Usage:
//
//	go run ./tools/doccheck [package-dir ...]
//
// With no arguments the audited packages are checked. Exit status
// is non-zero if any exported const, var, type, function, method, or
// struct field is undocumented.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// defaultDirs are the packages whose documentation the build gates on.
var defaultDirs = []string{
	".",
	"internal/kernels",
	"internal/sim",
	"internal/harness",
	"internal/obs",
	"internal/stats",
	"internal/prof",
	"internal/inspect",
	"internal/plan",
	"internal/fault",
	"internal/arrival",
	"internal/service",
	"internal/service/cache",
	"internal/service/journal",
	"internal/service/tracing",
}

func main() {
	dirs := os.Args[1:]
	if len(dirs) == 0 {
		dirs = defaultDirs
	}
	var problems []string
	for _, dir := range dirs {
		p, err := checkDir(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "doccheck:", err)
			os.Exit(2)
		}
		problems = append(problems, p...)
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		for _, p := range problems {
			fmt.Println(p)
		}
		fmt.Printf("doccheck: %d undocumented exported identifier(s)\n", len(problems))
		os.Exit(1)
	}
}

// checkDir parses one package directory (tests excluded) and returns one
// line per undocumented exported identifier.
func checkDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var out []string
	report := func(pos token.Pos, what, name string) {
		p := fset.Position(pos)
		out = append(out, fmt.Sprintf("%s:%d: %s %s is exported but undocumented",
			filepath.ToSlash(p.Filename), p.Line, what, name))
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() && d.Doc.Text() == "" {
						report(d.Pos(), "function", d.Name.Name)
					}
				case *ast.GenDecl:
					checkGenDecl(d, report)
				}
			}
		}
	}
	return out, nil
}

// checkGenDecl walks const/var/type declarations. A doc comment on the
// grouped declaration covers a single spec; within groups each exported
// spec needs its own comment (matching the convention gofmt preserves).
func checkGenDecl(d *ast.GenDecl, report func(token.Pos, string, string)) {
	groupDoc := d.Doc.Text()
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && groupDoc == "" && s.Doc.Text() == "" && s.Comment.Text() == "" {
				report(s.Pos(), "type", s.Name.Name)
			}
			if st, ok := s.Type.(*ast.StructType); ok && s.Name.IsExported() {
				checkFields(s.Name.Name, st, report)
			}
		case *ast.ValueSpec:
			// A doc comment on the group (e.g. one comment over a const
			// block enumerating related values) is NOT enough here: each
			// exported const/var inside must carry its own comment, since
			// these packages promise per-identifier contracts.
			doc := s.Doc.Text() + s.Comment.Text()
			if len(d.Specs) == 1 {
				doc += groupDoc
			}
			for _, n := range s.Names {
				if n.IsExported() && doc == "" {
					report(n.Pos(), "value", n.Name)
				}
			}
		}
	}
}

// checkFields requires a doc or trailing comment on every exported field
// of an exported struct.
func checkFields(typeName string, st *ast.StructType, report func(token.Pos, string, string)) {
	for _, f := range st.Fields.List {
		if f.Doc.Text() != "" || f.Comment.Text() != "" {
			continue
		}
		for _, n := range f.Names {
			if n.IsExported() {
				report(n.Pos(), "field", typeName+"."+n.Name)
			}
		}
	}
}
