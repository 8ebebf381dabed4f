// Command doclint enforces the repository's documentation contract in
// CI: every package under the given roots must carry a godoc package
// comment, every exported type must have a doc comment (the typed
// executor and workload packages are client API surface, so exported
// types rot fastest), and every exported field of a tuning-knob struct
// (a type named Config or Options, e.g. core.Options and
// storage.Config) must have a doc comment — those fields are the
// operator surface README.md and ARCHITECTURE.md point at.
//
// It also enforces that internal/ carries no API without a production
// caller: every exported function, method, interface method and
// package-level constant under internal/ must be used by a non-test
// file of this module or of benchmark/ (type-checked with go/types, so
// a used method never hides an unused one of the same name), or be
// listed with a reason in cmd/doclint/allowlist.txt. A listed name that
// gains a caller or is deleted fails too. Methods of a type the root
// package re-exports by alias are public API and exempt; see lintUnused.
//
// Usage:
//
//	go run ./cmd/doclint            # lints ./internal
//	go run ./cmd/doclint dir ...    # lints the given roots
//
// Run it from the repository root: the caller rule always reads this
// module and benchmark/, and cmd/doclint/allowlist.txt.
//
// Exits non-zero listing every violation.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	roots := os.Args[1:]
	if len(roots) == 0 {
		roots = []string{"internal"}
	}
	violations, err := lintUnused([]string{".", "benchmark"}, "cmd/doclint/allowlist.txt")
	if err != nil {
		fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
		os.Exit(2)
	}
	for _, root := range roots {
		dirs, err := packageDirs(root)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
			os.Exit(2)
		}
		for _, dir := range dirs {
			v, err := lintDir(dir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "doclint: %s: %v\n", dir, err)
				os.Exit(2)
			}
			violations = append(violations, v...)
		}
	}
	if len(violations) > 0 {
		fmt.Printf("doclint: %d violation(s)\n", len(violations))
		for _, v := range violations {
			fmt.Printf("  - %s\n", v)
		}
		os.Exit(1)
	}
	fmt.Println("doclint: all packages, exported types and knob structs documented; no exported internal API without a caller")
}

// packageDirs returns every directory under root containing .go files.
func packageDirs(root string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		dir := filepath.Dir(path)
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
		return nil
	})
	return dirs, err
}

func lintDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var violations []string
	for name, pkg := range pkgs {
		hasDoc := false
		for _, f := range pkg.Files {
			if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
				hasDoc = true
				break
			}
		}
		if !hasDoc {
			violations = append(violations, fmt.Sprintf(
				"%s: package %s has no package comment (// Package %s ...)", dir, name, name))
		}
		for _, f := range pkg.Files {
			violations = append(violations, lintExportedTypes(fset, f)...)
			violations = append(violations, lintKnobs(fset, f)...)
		}
	}
	return violations, nil
}

// lintExportedTypes checks that every exported type declaration
// carries a doc comment, either on the TypeSpec itself or on its
// enclosing grouped declaration.
func lintExportedTypes(fset *token.FileSet, f *ast.File) []string {
	var violations []string
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		groupDoc := gd.Doc != nil && strings.TrimSpace(gd.Doc.Text()) != ""
		for _, spec := range gd.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok || !ts.Name.IsExported() {
				continue
			}
			if groupDoc || (ts.Doc != nil && strings.TrimSpace(ts.Doc.Text()) != "") {
				continue
			}
			pos := fset.Position(ts.Pos())
			violations = append(violations, fmt.Sprintf(
				"%s:%d: exported type %s has no doc comment",
				pos.Filename, pos.Line, ts.Name.Name))
		}
	}
	return violations
}

// lintKnobs checks exported fields of Config/Options structs for doc
// comments.
func lintKnobs(fset *token.FileSet, f *ast.File) []string {
	var violations []string
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok || !ts.Name.IsExported() {
				continue
			}
			if ts.Name.Name != "Config" && ts.Name.Name != "Options" &&
				!strings.HasSuffix(ts.Name.Name, "Config") && !strings.HasSuffix(ts.Name.Name, "Options") {
				continue
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				continue
			}
			for _, field := range st.Fields.List {
				if field.Doc != nil && strings.TrimSpace(field.Doc.Text()) != "" {
					continue
				}
				for _, name := range field.Names {
					if name.IsExported() {
						pos := fset.Position(field.Pos())
						violations = append(violations, fmt.Sprintf(
							"%s:%d: %s.%s has no doc comment (tuning knob)",
							pos.Filename, pos.Line, ts.Name.Name, name.Name))
					}
				}
			}
		}
	}
	return violations
}
