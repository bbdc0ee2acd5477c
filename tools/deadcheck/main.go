// Command deadcheck fails when a non-test package-level declaration or
// method is not reachable from any program the module builds, unless the
// allowlist names it. It uses go/parser and go/types alone, so CI needs no
// third-party linter.
//
// Usage (from the module root):
//
//	go run ./tools/deadcheck
//
// The roots are the main function of every main package, every init
// function and every blank-named package-level var. A declaration is live
// when a live declaration's source names it, and a const group that counts
// with iota lives or dies as one. Each method is a node of its own, keyed
// pkg.Type.Method without type parameters (internal/tensor.Dense.Zero). It
// is live when live code selects it — a call, a method value or
// expression, or a selection promoted through an embedded field — or when
// its receiver type is live and some interface may call it through that
// type:
//   - an interface declared by a package the module imports directly, or
//     error, keeps the method if the type or a pointer to it implements
//     that interface, so String, Len/Less/Swap or ServeHTTP need no call
//     site;
//   - an interface written in the module, named or anonymous, keeps the
//     method only once live code calls that interface's method, and only
//     on a type that implements the interface.
//
// Test files are not read; the other files are those the host's default
// build (no tags) compiles.
//
// Each line of tools/deadcheck/allow.txt is `key  reason`; key is pkg.Name
// or pkg.Type.Method, pkg the directory relative to the module root, and
// the reason starts with "test oracle", "test helper" or "item N" (a
// ROADMAP item that will call it). What an entry's own source reaches is
// covered by it and needs no entry. An entry that a root reaches, or that
// names nothing, is an error, so the list can only shrink. Exit status 1
// lists every finding.
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
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

func main() {
	bad, err := run(".", "tools/deadcheck/allow.txt", os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcheck:", err)
		os.Exit(2)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "deadcheck: %d finding(s)\n", bad)
		os.Exit(1)
	}
}

// decl is one package-level declaration of the module.
type decl struct {
	key   string // pkg.Name, pkg relative to the module root
	pos   token.Position
	lines int
}

// run checks the module at root against the allowlist at allowPath (relative
// to root unless absolute), prints every finding to w and returns their count.
func run(root, allowPath string, w io.Writer) (int, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return 0, err
	}
	dirs, err := packageDirs(root)
	if err != nil {
		return 0, err
	}
	l := &loader{root: root, modPath: modPath, fset: token.NewFileSet(),
		std: importer.Default(), pkgs: map[string]*pkgInfo{}}
	for _, rel := range dirs {
		if _, err := l.load(rel); err != nil {
			return 0, err
		}
	}
	g := l.build()

	if !filepath.IsAbs(allowPath) {
		allowPath = filepath.Join(root, allowPath)
	}
	allowed, err := readAllow(allowPath)
	if err != nil {
		return 0, err
	}
	bad := 0
	report := func(format string, args ...any) {
		fmt.Fprintf(w, format+"\n", args...)
		bad++
	}
	// An allowlisted entry's own references are followed, so what only an
	// oracle reaches needs no entry; an entry a real root reaches is stale.
	live := g.reach(g.roots)
	kept := append([]types.Object(nil), g.roots...)
	for key := range allowed {
		if obj := g.keyed[key]; obj != nil {
			kept = append(kept, obj)
		}
	}
	covered := g.reach(kept)
	var dead []*decl
	for key, d := range g.decls {
		if !covered[key] {
			dead = append(dead, d)
		}
	}
	sort.Slice(dead, func(i, j int) bool {
		a, b := dead[i].pos, dead[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	for _, d := range dead {
		rel, _ := filepath.Rel(root, d.pos.Filename)
		report("%s:%d: %s is unreachable (%d lines)", filepath.ToSlash(rel), d.pos.Line, d.key, d.lines)
	}
	for _, key := range sortedKeys(allowed) {
		switch {
		case g.decls[key] == nil:
			report("%s: allowlisted %s names no declaration; delete its entry", filepath.Base(allowPath), key)
		case live[key]:
			report("%s: allowlisted %s is reached; delete its entry", filepath.Base(allowPath), key)
		}
	}
	return bad, nil
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// reasonRE is the form an allowlist reason must take.
var reasonRE = regexp.MustCompile(`^(test oracle|test helper|item [0-9]+)\b`)

// readAllow parses the allowlist: one `key  reason` per line, # comments.
func readAllow(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allowed := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(line, " ")
		reason = strings.TrimSpace(reason)
		if !reasonRE.MatchString(reason) {
			return nil, fmt.Errorf("%s:%d: %s: reason must start with \"test oracle\", \"test helper\" or \"item N\"", path, n, key)
		}
		if allowed[key] != "" {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, n, key)
		}
		allowed[key] = reason
	}
	return allowed, sc.Err()
}

// modulePath reads the module line of a go.mod file.
func modulePath(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1], nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// packageDirs lists the module's directories that hold Go files, relative
// to root, skipping testdata, hidden directories and nested modules.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root {
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		if m, _ := filepath.Glob(filepath.Join(path, "*.go")); len(m) > 0 {
			rel, _ := filepath.Rel(root, path)
			dirs = append(dirs, filepath.ToSlash(rel))
		}
		return nil
	})
	return dirs, err
}

// pkgInfo is one type-checked package.
type pkgInfo struct {
	rel   string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// loader type-checks the module's packages; everything outside the module
// comes from the standard importer.
type loader struct {
	root    string
	modPath string
	fset    *token.FileSet
	std     types.Importer
	pkgs    map[string]*pkgInfo // by rel; nil entry for a package without files
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if !l.inModule(path) {
		return l.std.Import(path)
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
	if rel == "" {
		rel = "."
	}
	p, err := l.load(rel)
	if err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("%s: no Go files", path)
	}
	return p.types, nil
}

// load parses and type-checks the package in directory rel once.
func (l *loader) load(rel string) (*pkgInfo, error) {
	if p, ok := l.pkgs[rel]; ok {
		return p, nil
	}
	l.pkgs[rel] = nil
	bp, err := build.ImportDir(filepath.Join(l.root, rel), 0)
	if _, noGo := err.(*build.NoGoError); noGo {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	p := &pkgInfo{rel: rel, info: &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(bp.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	path := l.modPath
	if rel != "." {
		path += "/" + rel
	}
	conf := types.Config{Importer: l}
	if p.types, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
		return nil, err
	}
	l.pkgs[rel] = p
	return p, nil
}

// node is one unit of liveness: a package-level declaration or a method.
type node struct {
	key  string         // "" for a root that has no name of its own
	refs []types.Object // what its source names
	link []types.Object // what lives and dies with it
}

// graph is the module's declarations and the references between them.
type graph struct {
	nodes map[types.Object]*node
	decls map[string]*decl
	keyed map[string]types.Object // the object behind each decls key
	roots []types.Object
	// dispatch lists, per method of an interface written in the module, the
	// methods a call of it may run: a method is live once both the call and
	// its receiver type are.
	dispatch []dispatch
}

// dispatch is one method a call through a module interface may run.
type dispatch struct {
	call, recv, method types.Object
}

// build collects every declaration of the module into a graph.
func (l *loader) build() *graph {
	g := &graph{nodes: map[types.Object]*node{}, decls: map[string]*decl{},
		keyed: map[string]types.Object{}}
	imported := l.importedInterfaces()
	var named []*types.TypeName
	for _, p := range l.pkgs {
		if p == nil {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				named = append(named, l.collect(p, d, g, imported)...)
			}
		}
	}
	for _, call := range l.moduleInterfaceMethods() {
		it := call.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		for _, tn := range named {
			if !implements(tn, it) {
				continue
			}
			m, _, _ := types.LookupFieldOrMethod(types.NewPointer(tn.Type()), false, call.Pkg(), call.Name())
			if m != nil {
				g.dispatch = append(g.dispatch, dispatch{call, tn, origin(m)})
			}
		}
	}
	return g
}

// reach returns the keys of the declarations reachable from roots.
func (g *graph) reach(roots []types.Object) map[string]bool {
	live := map[string]bool{}
	seen := map[types.Object]bool{}
	var work []types.Object
	push := func(obj types.Object) {
		obj = origin(obj)
		if obj == nil || seen[obj] {
			return
		}
		seen[obj] = true
		work = append(work, obj)
	}
	for _, r := range roots {
		push(r)
	}
	for len(work) > 0 {
		for len(work) > 0 {
			obj := work[len(work)-1]
			work = work[:len(work)-1]
			n := g.nodes[obj]
			if n == nil {
				continue // outside the module, or not package-level
			}
			if n.key != "" {
				live[n.key] = true
			}
			for _, r := range n.refs {
				push(r)
			}
			for _, r := range n.link {
				push(r)
			}
		}
		for _, d := range g.dispatch {
			if seen[d.call] && seen[d.recv] {
				push(d.method)
			}
		}
	}
	return live
}

// importedInterfaces returns error and every interface type that a module
// package's direct imports declare: code outside the module may call their
// methods on any value that implements them.
func (l *loader) importedInterfaces() []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	imported := map[*types.Package]bool{}
	for _, p := range l.pkgs {
		if p == nil {
			continue
		}
		for _, imp := range p.types.Imports() {
			if !l.inModule(imp.Path()) {
				imported[imp] = true
			}
		}
	}
	for pkg := range imported {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				out = append(out, it)
			}
		}
	}
	return out
}

// moduleInterfaceMethods returns the methods of every interface type
// written in the module's source, named or anonymous.
func (l *loader) moduleInterfaceMethods() []*types.Func {
	var out []*types.Func
	for _, p := range l.pkgs {
		if p == nil {
			continue
		}
		for _, f := range p.files {
			ast.Inspect(f, func(x ast.Node) bool {
				if it, ok := x.(*ast.InterfaceType); ok {
					for _, m := range it.Methods.List {
						for _, name := range m.Names {
							out = append(out, p.info.Defs[name].(*types.Func))
						}
					}
				}
				return true
			})
		}
	}
	return out
}

// implements reports whether the named type tn, or a pointer to it,
// implements it. go/types does not define Implements for a generic type, so
// one matches on method names alone.
func implements(tn *types.TypeName, it *types.Interface) bool {
	t := tn.Type()
	if _, ok := t.Underlying().(*types.Interface); ok || it.NumMethods() == 0 {
		return false
	}
	if n, ok := t.(*types.Named); !ok || n.TypeParams().Len() == 0 {
		return types.Implements(t, it) || types.Implements(types.NewPointer(t), it)
	}
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		if obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(t), false, m.Pkg(), m.Name()); obj == nil {
			return false
		}
	}
	return true
}

// collect records the nodes one top-level declaration defines and returns
// the named types it declares. A method is keyed pkg.Type.Method and lives
// when live code selects it; a live type also keeps alive each of its
// methods that an imported interface it implements names.
func (l *loader) collect(p *pkgInfo, d ast.Decl, g *graph, imported []*types.Interface) []*types.TypeName {
	var declared []*types.TypeName
	add := func(obj types.Object, key string, from, to token.Pos, src ast.Node) *node {
		n := &node{key: key, refs: l.refs(p, src)}
		if key != "" {
			g.decls[key] = &decl{key: key, pos: l.fset.Position(obj.Pos()),
				lines: l.fset.Position(to).Line - l.fset.Position(from).Line + 1}
			g.keyed[key] = obj
		}
		g.nodes[obj] = n
		return n
	}
	switch d := d.(type) {
	case *ast.FuncDecl:
		obj := p.info.Defs[d.Name].(*types.Func)
		from := d.Pos()
		if d.Doc != nil {
			from = d.Doc.Pos()
		}
		switch {
		case d.Recv != nil:
			recv := recvTypeName(obj)
			n := add(obj, p.rel+"."+recv.Name()+"."+obj.Name(), from, d.End(), d)
			// Calling a method needs a value of its receiver type.
			n.refs = append(n.refs, recv)
		case d.Name.Name == "init" || (p.types.Name() == "main" && d.Name.Name == "main"):
			add(obj, "", from, d.End(), d)
			g.roots = append(g.roots, obj)
		default:
			add(obj, p.rel+"."+obj.Name(), from, d.End(), d)
		}
	case *ast.GenDecl:
		var group []types.Object
		for _, spec := range d.Specs {
			from, to := spec.Pos(), spec.End()
			if len(d.Specs) == 1 {
				from, to = d.Pos(), d.End()
			}
			if d.Doc != nil && len(d.Specs) == 1 {
				from = d.Doc.Pos()
			}
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Doc != nil {
					from = s.Doc.Pos()
				}
				obj := p.info.Defs[s.Name].(*types.TypeName)
				n := add(obj, p.rel+"."+obj.Name(), from, to, s)
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() {
					continue
				}
				declared = append(declared, obj)
				callable := map[string]bool{}
				for _, it := range imported {
					if implements(obj, it) {
						for i := 0; i < it.NumMethods(); i++ {
							callable[it.Method(i).Name()] = true
						}
					}
				}
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); callable[m.Name()] {
						n.link = append(n.link, m)
					}
				}
			case *ast.ValueSpec:
				if s.Doc != nil {
					from = s.Doc.Pos()
				}
				for _, name := range s.Names {
					obj := p.info.Defs[name]
					if name.Name == "_" {
						// A blank var is evaluated at init and has no key.
						obj = types.NewVar(name.Pos(), p.types, "_", nil)
						add(obj, "", from, to, s)
						g.roots = append(g.roots, obj)
						continue
					}
					add(obj, p.rel+"."+obj.Name(), from, to, s)
					if d.Tok == token.CONST && (len(s.Values) == 0 || usesIota(s)) {
						group = append(group, obj)
					}
				}
			}
		}
		// Deleting one member of an iota sequence would renumber the rest.
		for _, a := range group {
			g.nodes[a].link = append(g.nodes[a].link, group...)
		}
	}
	return declared
}

// refs lists the module objects that the source of n names.
func (l *loader) refs(p *pkgInfo, n ast.Node) []types.Object {
	var out []types.Object
	ast.Inspect(n, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok {
			if obj := p.info.Uses[id]; obj != nil && obj.Pkg() != nil && l.inModule(obj.Pkg().Path()) {
				out = append(out, obj)
			}
		}
		return true
	})
	return out
}

// inModule reports whether an import path belongs to the module.
func (l *loader) inModule(path string) bool {
	return path == l.modPath || strings.HasPrefix(path, l.modPath+"/")
}

// origin maps an instantiated function or method to its declaration.
func origin(obj types.Object) types.Object {
	if f, ok := obj.(*types.Func); ok {
		return f.Origin()
	}
	return obj
}

// recvTypeName returns the named type a method is declared on.
func recvTypeName(m *types.Func) types.Object {
	t := m.Type().(*types.Signature).Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Origin().Obj()
	}
	return nil
}

// usesIota reports whether a const spec's values mention iota.
func usesIota(s *ast.ValueSpec) bool {
	found := false
	for _, v := range s.Values {
		ast.Inspect(v, func(x ast.Node) bool {
			if id, ok := x.(*ast.Ident); ok && id.Name == "iota" {
				found = true
			}
			return !found
		})
	}
	return found
}
