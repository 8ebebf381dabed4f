package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// lintUnused type-checks every non-test package of the given modules
// and reports each exported function, method, interface method and
// package-level constant declared under the first module's internal/
// directory that no non-test file of any of the modules uses. The
// first module is the one whose internal/ is linted; the others (for
// this repository, benchmark/) count as callers only.
//
// A use inside the declaration's own body (recursion) does not count.
// A concrete method also counts as used when it satisfies a method of a
// module interface whose method is used or allowlisted, or of any
// exported interface of a public (not internal or vendored) standard
// library package that the modules import, directly or not: error,
// fmt.Stringer, io.Closer, sort.Interface. The standard library may
// call such a method, so a method whose name and signature match one
// of those interfaces is exempt whether or not anything calls it
// through that interface. Exported methods of a type that the
// first module's root package re-exports under a type alias are that
// module's public API and are never reported.
//
// allowFile names a file of "name reason..." lines ('#' starts a
// comment); each listed name is exempt, and an entry whose name is now
// used or no longer declared is itself a violation, so the list cannot
// go stale. Names are written relative to internal/: "harness.RunFailover",
// "engine.Engine.Crash", "storage.Device.SetIOHook".
func lintUnused(modules []string, allowFile string) ([]string, error) {
	l, err := loadModules(modules)
	if err != nil {
		return nil, err
	}
	allow, err := readAllowlist(allowFile)
	if err != nil {
		return nil, err
	}
	internal := l.mods[0].path + "/internal/"

	used := make(map[types.Object]bool)
	var ifaces []*types.Interface
	for _, p := range l.pkgs {
		self := selfUses(p)
		for id, obj := range p.info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin() // a generic type's method is used through its instances
			}
			if self[id] != obj {
				used[obj] = true
			}
		}
		for _, tv := range p.info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && tv.IsType() {
				ifaces = append(ifaces, it)
			}
		}
	}
	// Every named interface of the modules, every exported interface of
	// a public standard-library package they reach, and the universe's
	// error is a way a method can be called without a selector naming
	// it. An allowlisted interface method keeps its implementations too.
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	allowedIface := make(map[types.Object]bool)
	seen := make(map[*types.Package]bool)
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		own := l.inModules(p.Path())
		short := strings.TrimPrefix(p.Path(), internal)
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || !own && (!tn.Exported() || !publicStd(p.Path())) {
				continue
			}
			it, ok := tn.Type().Underlying().(*types.Interface)
			if !ok {
				continue
			}
			ifaces = append(ifaces, it)
			for i := 0; i < it.NumExplicitMethods(); i++ {
				m := it.ExplicitMethod(i)
				_, allowedIface[m] = allow[short+"."+name+"."+m.Name()]
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range l.pkgs {
		walk(p.types)
	}
	publicAPI := l.aliasedTypes()

	ifaceMethodUsed := func(m *types.Func) bool {
		return used[m] || allowedIface[m] || m.Pkg() == nil || !l.inModules(m.Pkg().Path())
	}
	// satisfiesUsed reports whether method m of named type T implements a
	// used method of some interface that T or *T satisfies.
	satisfiesUsed := func(m *types.Func, named *types.Named) bool {
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				im := it.Method(i)
				if im.Name() != m.Name() || !ifaceMethodUsed(im) {
					continue
				}
				if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
					return true
				}
			}
		}
		return false
	}

	var violations []string
	unused := make(map[string]bool)
	for _, p := range l.pkgs {
		if !strings.HasPrefix(p.path+"/", internal) {
			continue
		}
		short := strings.TrimPrefix(p.path, internal)
		report := func(name string, obj types.Object, kind string) {
			unused[name] = true
			if _, ok := allow[name]; ok {
				return
			}
			pos := l.fset.Position(obj.Pos())
			violations = append(violations, fmt.Sprintf(
				"%s:%d: exported %s %s has no non-test caller (delete it, unexport it, or allowlist it in %s with a reason)",
				pos.Filename, pos.Line, kind, name, allowFile))
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					fn := p.info.Defs[d.Name].(*types.Func)
					if d.Recv == nil {
						if !used[fn] {
							report(short+"."+fn.Name(), fn, "function")
						}
						continue
					}
					named := recvNamed(fn)
					name := short + "." + named.Obj().Name() + "." + fn.Name()
					if !used[fn] && !publicAPI[named.Obj()] && !satisfiesUsed(fn, named) {
						report(name, fn, "method")
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.ValueSpec:
							if d.Tok != token.CONST {
								continue
							}
							for _, id := range s.Names {
								if obj := p.info.Defs[id]; id.IsExported() && !used[obj] {
									report(short+"."+id.Name, obj, "constant")
								}
							}
						case *ast.TypeSpec:
							tn, ok := p.info.Defs[s.Name].(*types.TypeName)
							if !ok || tn.IsAlias() {
								continue
							}
							it, ok := tn.Type().Underlying().(*types.Interface)
							if !ok {
								continue
							}
							for i := 0; i < it.NumExplicitMethods(); i++ {
								m := it.ExplicitMethod(i)
								if m.Exported() && !used[m] {
									report(short+"."+tn.Name()+"."+m.Name(), m, "interface method")
								}
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(violations)
	var stale []string
	for name, reason := range allow {
		switch {
		case reason == "":
			stale = append(stale, fmt.Sprintf("%s: allowlist entry %s gives no reason", allowFile, name))
		case !unused[name]:
			stale = append(stale, fmt.Sprintf("%s: allowlist entry %s is stale: it has a non-test caller now, or is no longer declared", allowFile, name))
		}
	}
	sort.Strings(stale)
	return append(violations, stale...), nil
}

// selfUses maps each identifier inside a function or method body that
// refers to that same function or method (a recursive call) to it.
func selfUses(p *pkg) map[*ast.Ident]types.Object {
	self := make(map[*ast.Ident]types.Object)
	for _, f := range p.files {
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.FuncDecl)
			if !ok || d.Body == nil {
				continue
			}
			fn := p.info.Defs[d.Name]
			ast.Inspect(d.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if obj, ok := p.info.Uses[id].(*types.Func); ok && obj.Origin() == fn {
						self[id] = fn
					}
				}
				return true
			})
		}
	}
	return self
}

// publicStd reports whether a standard-library import path is public:
// no internal or vendor element.
func publicStd(path string) bool {
	for _, elem := range strings.Split(path, "/") {
		if elem == "internal" || elem == "vendor" {
			return false
		}
	}
	return true
}

// recvNamed returns the named type a method is declared on.
func recvNamed(fn *types.Func) *types.Named {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}

// readAllowlist parses "name reason..." lines; a missing file is an
// empty list.
func readAllowlist(path string) (map[string]string, error) {
	allow := make(map[string]string)
	if path == "" {
		return allow, nil
	}
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return allow, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if _, dup := allow[name]; dup {
			return nil, fmt.Errorf("%s: %s listed twice", path, name)
		}
		allow[name] = strings.TrimSpace(reason)
	}
	return allow, sc.Err()
}

// module is one Go module: its import path and directory.
type module struct {
	path, dir string
}

// pkg is one type-checked package.
type pkg struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// loader type-checks the modules' packages from source, sharing one
// object per declaration across every package that imports it, and
// hands standard-library imports to go/importer's source importer.
type loader struct {
	fset   *token.FileSet
	mods   []module
	std    types.ImporterFrom
	pkgs   map[string]*pkg
	active map[string]bool
}

func loadModules(dirs []string) (*loader, error) {
	fset := token.NewFileSet()
	l := &loader{
		fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:   make(map[string]*pkg),
		active: make(map[string]bool),
	}
	for _, dir := range dirs {
		path, err := modulePath(dir)
		if err != nil {
			return nil, err
		}
		l.mods = append(l.mods, module{path: path, dir: dir})
	}
	for i, m := range l.mods {
		err := filepath.WalkDir(m.dir, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			base := d.Name()
			if p != m.dir && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") || l.isModuleRoot(p, i)) {
				return filepath.SkipDir
			}
			rel, err := filepath.Rel(m.dir, p)
			if err != nil {
				return err
			}
			path := m.path
			if rel != "." {
				path += "/" + filepath.ToSlash(rel)
			}
			_, err = l.load(path, p)
			if _, none := err.(*build.NoGoError); none {
				return nil
			}
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return l, nil
}

// isModuleRoot reports whether dir holds a go.mod of its own, other
// than module i's.
func (l *loader) isModuleRoot(dir string, i int) bool {
	if _, err := os.Stat(filepath.Join(dir, "go.mod")); err != nil {
		return false
	}
	return filepath.Clean(dir) != filepath.Clean(l.mods[i].dir)
}

// inModules reports whether an import path belongs to a linted module.
func (l *loader) inModules(path string) bool {
	_, ok := l.dirOf(path)
	return ok
}

// dirOf maps an import path to its directory in the module with the
// longest matching path.
func (l *loader) dirOf(path string) (string, bool) {
	best := -1
	for i, m := range l.mods {
		if (path == m.path || strings.HasPrefix(path, m.path+"/")) && (best < 0 || len(m.path) > len(l.mods[best].path)) {
			best = i
		}
	}
	if best < 0 {
		return "", false
	}
	m := l.mods[best]
	return filepath.Join(m.dir, filepath.FromSlash(strings.TrimPrefix(path, m.path))), true
}

func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if d, ok := l.dirOf(path); ok {
		p, err := l.load(path, d)
		if err != nil {
			return nil, err
		}
		return p.types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

// load parses and type-checks the non-test files of the package in dir,
// once.
func (l *loader) load(path, dir string) (*pkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.active[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.active[path] = true
	defer delete(l.active, path)
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p := &pkg{path: path, info: &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	p.types, err = conf.Check(path, l.fset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// aliasedTypes returns the named types that the first module's root
// package re-exports with a type alias: their methods are public API.
func (l *loader) aliasedTypes() map[*types.TypeName]bool {
	out := make(map[*types.TypeName]bool)
	root, ok := l.pkgs[l.mods[0].path]
	if !ok {
		return out
	}
	scope := root.types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !tn.IsAlias() || !tn.Exported() {
			continue
		}
		t := types.Unalias(tn.Type())
		if n, ok := t.(*types.Named); ok {
			out[n.Obj()] = true
		}
	}
	return out
}

// modulePath reads the module path from dir/go.mod.
func modulePath(dir string) (string, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s/go.mod: no module line", dir)
}
