package redpatch

import (
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
	"sync"
	"testing"
)

// exportAllowlist names the exported API in internal/ and the root
// package that the reference scan below cannot see being called, each
// with the reason it stays. Keys are "importpath.Name" or
// "importpath.Type.Method".
var exportAllowlist = map[string]string{
	"redpatch/internal/patch.Outcome.MarshalJSON":      "json.Marshaler: encoding/json calls it when redpatchd streams fleet simulation events",
	"redpatch/internal/patch.Outcome.UnmarshalJSON":    "json.Unmarshaler: the decoding half of the event wire format MarshalJSON writes",
	"redpatch/internal/vulndb.DB.MarshalJSON":          "json.Marshaler: encoding/json calls it when the facade fingerprints the vulnerability dataset",
	"redpatch/internal/vulndb.DB.UnmarshalJSON":        "json.Unmarshaler: the decoding half of the dataset format MarshalJSON writes",
	"redpatch/internal/vulndb.Component.MarshalJSON":   "json.Marshaler: encoding/json calls it for every record DB.MarshalJSON encodes",
	"redpatch/internal/vulndb.Component.UnmarshalJSON": "json.Unmarshaler: the decoding half of the record format MarshalJSON writes",
	"redpatch/internal/srn.Kind.String":                "fmt.Stringer: Net.Validate formats an invalid transition kind with %v",
	"redpatch/internal/paperdata.DesignSpec.String":    "fmt.Stringer: Engine.Sweep formats a failed design with %s in its error",
	"redpatch/internal/trace.LogHandler.Enabled":       "slog.Handler: log/slog calls it on redpatchd's logger",
	"redpatch/internal/trace.LogHandler.Handle":        "slog.Handler: log/slog calls it on redpatchd's logger",
	"redpatch/internal/trace.LogHandler.WithAttrs":     "slog.Handler: log/slog calls it on redpatchd's logger",
	"redpatch/internal/trace.LogHandler.WithGroup":     "slog.Handler: log/slog calls it on redpatchd's logger",
}

// TestEveryExportedNameHasACaller fails on every exported top-level name,
// and every method of an exported type, in internal/ and the root package
// that no non-test code uses, unless exportAllowlist keeps it; on every
// allowlist entry that is no longer needed; and on every non-test package
// that imports internal/oracle.
func TestEveryExportedNameHasACaller(t *testing.T) {
	s, err := rootScan()
	if err != nil {
		t.Fatal(err)
	}
	unused, oracleUsers := s.unusedExports()
	flagged, stale := applyAllowlist(unused, exportAllowlist)
	if len(flagged) > 0 {
		t.Errorf("%d exported names in internal/ and the root package have no caller outside tests; delete them (or unexport them if their package still uses them):\n\t%s",
			len(flagged), strings.Join(flagged, "\n\t"))
	}
	for _, k := range stale {
		t.Errorf("allowlist entry %s is not an unused export any more; remove it", k)
	}
	for _, u := range oracleUsers {
		t.Errorf("%s: oracle code is for tests only", u)
	}
}

// TestUnusedExportsFixture runs the scan over the small module in
// testdata/callers, whose names each exercise one rule of the gate.
func TestUnusedExportsFixture(t *testing.T) {
	s, err := scanModule(filepath.Join("testdata", "callers"))
	if err != nil {
		t.Fatal(err)
	}
	unused, oracleUsers := s.unusedExports()
	want := []string{
		"fixture.UsedByOwnTest",
		"fixture/internal/lib.Allowlisted",
		"fixture/internal/lib.UsedByOtherTest",
		"fixture/internal/lib.UsedByOwnTest",
	}
	if fmt.Sprint(unused) != fmt.Sprint(want) {
		t.Errorf("unused = %v, want %v", unused, want)
	}
	if want := []string{"fixture/serving imports fixture/internal/oracle"}; fmt.Sprint(oracleUsers) != fmt.Sprint(want) {
		t.Errorf("oracle users = %v, want %v", oracleUsers, want)
	}
	flagged, stale := applyAllowlist(unused, map[string]string{
		"fixture/internal/lib.Allowlisted": "kept on purpose",
		"fixture/internal/lib.UsedByCode":  "used, so this entry is stale",
	})
	if want := []string{"fixture.UsedByOwnTest", "fixture/internal/lib.UsedByOtherTest", "fixture/internal/lib.UsedByOwnTest"}; fmt.Sprint(flagged) != fmt.Sprint(want) {
		t.Errorf("flagged = %v, want %v", flagged, want)
	}
	if want := []string{"fixture/internal/lib.UsedByCode"}; fmt.Sprint(stale) != fmt.Sprint(want) {
		t.Errorf("stale = %v, want %v", stale, want)
	}
}

// checkAllowlists names, for each check of outside input, every
// function whose body may call it, with the reason it checks. Everything
// else takes valid input as a precondition, so a design is checked once
// per request: a re-validation added anywhere else fails
// TestSpecCheckedOnce. fleet.System.Validate is listed because it
// checks a system's design.
var checkAllowlists = map[string]map[string]string{
	"redpatch/internal/paperdata.DesignSpec.Validate": {
		"redpatch/internal/engine.Engine.check":              "the engine's one check: every engine entry that takes a design spec calls it",
		"redpatch/cmd/redpatchd.server.handleRolloutSweep":   "rollout/sweep's pre-check: a stream must answer 400 before its first byte",
		"redpatch/cmd/redpatchd.server.handleRankPatches":    "rank-patches' pre-check: an invalid spec is refused before admission",
		"redpatch/internal/fleet.System.Validate":            "a fleet system is outside input",
		"redpatch/internal/paperdata.KeyParser.AppendParse":  "a dump's keys are outside input",
		"redpatch/internal/redundancy.Evaluator.RankPatches": "the ranking's check: the engine does not serve it",
	},
	"redpatch/internal/fleet.System.Validate": {
		"redpatch/internal/fleet.Registry.Register": "a registered batch, checked once before any of it is stored",
		"redpatch/internal/fleet.Registry.Restore":  "a restored registry dump",
	},
}

// TestSpecCheckedOnce fails on every function outside checkAllowlists
// whose non-test code calls one of its checks, and on every allowlist
// entry that no longer does.
func TestSpecCheckedOnce(t *testing.T) {
	s, err := rootScan()
	if err != nil {
		t.Fatal(err)
	}
	for check, allow := range checkAllowlists {
		flagged, stale := applyAllowlist(s.usersOf(check), allow)
		for _, k := range flagged {
			t.Errorf("%s calls %s: take valid input, as the engine's entries check it, or allowlist it with its reason", k, check)
		}
		for _, k := range stale {
			t.Errorf("allowlist entry %s does not call %s any more; remove it", k, check)
		}
	}
}

// applyAllowlist splits a scan's result into the names the allowlist does
// not keep and the allowlist entries the scan did not report, both sorted.
func applyAllowlist(unused []string, allow map[string]string) (flagged, stale []string) {
	reported := map[string]bool{}
	for _, k := range unused {
		reported[k] = true
		if _, ok := allow[k]; !ok {
			flagged = append(flagged, k)
		}
	}
	for k := range allow {
		if !reported[k] {
			stale = append(stale, k)
		}
	}
	sort.Strings(stale)
	return flagged, stale
}

// srcPackage is one directory's parsed non-test files and their imports.
type srcPackage struct {
	files          []*ast.File
	imports        []string
	receiverIdents map[*ast.Ident]bool
}

// scan type-checks a module's non-test code and records which of its
// names that code uses, and in which functions.
type scan struct {
	module string
	fset   *token.FileSet
	std    types.Importer
	pkgs   map[string]*srcPackage
	paths  []string // the keys of pkgs, sorted
	plain  map[string]*types.Package
	used   map[string]bool
	// users maps a name's key to the keys of the functions and methods
	// whose bodies use it.
	users map[string]map[string]bool
}

// rootScan is the scan of this module, shared by the tests that read it.
var rootScan = sync.OnceValues(func() (*scan, error) { return scanModule(".") })

// usersOf lists, sorted, the functions and methods whose bodies use the
// name with key k.
func (s *scan) usersOf(k string) []string {
	var out []string
	for u := range s.users[k] {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// scanModule type-checks the non-test code of the module at root.
// Nested modules under root, such as bench, are scanned as its users
// when their module path is the root's path plus their directory. A
// method also counts as used when an interface declared in the module
// that its type implements has that method used.
func scanModule(root string) (*scan, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	s := &scan{
		fset:  token.NewFileSet(),
		pkgs:  map[string]*srcPackage{},
		plain: map[string]*types.Package{},
		used:  map[string]bool{},
		users: map[string]map[string]bool{},
	}
	for _, line := range strings.Split(string(mod), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			s.module = strings.TrimSpace(rest)
		}
	}
	if s.module == "" {
		return nil, fmt.Errorf("%s: no module line", filepath.Join(root, "go.mod"))
	}
	s.std = importer.ForCompiler(s.fset, "source", nil)
	if err := s.parse(root); err != nil {
		return nil, err
	}
	for p := range s.pkgs {
		s.paths = append(s.paths, p)
	}
	sort.Strings(s.paths)
	for _, p := range s.paths {
		if _, err := s.Import(p); err != nil {
			return nil, err
		}
	}
	s.linkInterfaces()
	return s, nil
}

// unusedExports lists, sorted, every exported top-level name and every
// exported method of an exported type in the root package and the
// internal/ packages of the scanned module that no non-test code of
// that module uses. The oracle packages, internal/oracle and below, are
// exempt: they serve tests only, and oracleUsers lists, sorted, each
// non-test package outside them that imports one. This is a reference
// scan, not a call graph: a name used only by other dead code passes.
func (s *scan) unusedExports() (unused, oracleUsers []string) {
	oracle := s.module + "/internal/oracle"
	isOracle := func(p string) bool { return p == oracle || strings.HasPrefix(p, oracle+"/") }
	for _, p := range s.paths {
		if isOracle(p) {
			continue
		}
		for _, imp := range s.pkgs[p].imports {
			if isOracle(imp) {
				oracleUsers = append(oracleUsers, p+" imports "+imp)
			}
		}
		if p != s.module && !strings.HasPrefix(p, s.module+"/internal/") {
			continue
		}
		scope := s.plain[p].Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !s.used[s.key(obj)] {
				unused = append(unused, s.key(obj))
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || !obj.Exported() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !s.used[s.key(m)] {
					unused = append(unused, s.key(m))
				}
			}
		}
	}
	sort.Strings(unused)
	return unused, oracleUsers
}

// parse reads the non-test files of every package directory under root.
func (s *scan) parse(root string) error {
	return filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != root && (strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(dir, 0)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			return err
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		path := s.module
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		sp := &srcPackage{imports: bp.Imports, receiverIdents: map[*ast.Ident]bool{}}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			sp.files = append(sp.files, f)
			markReceivers(f, sp.receiverIdents)
		}
		s.pkgs[path] = sp
		return nil
	})
}

// markReceivers records the identifiers in method receivers: a type named
// only by its own methods' receivers has no user.
func markReceivers(f *ast.File, into map[*ast.Ident]bool) {
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
			ast.Inspect(fd.Recv, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					into[id] = true
				}
				return true
			})
		}
	}
}

// Import type-checks a module package once and records its uses; other
// paths go to the stdlib importer.
func (s *scan) Import(path string) (*types.Package, error) {
	if p, ok := s.plain[path]; ok {
		return p, nil
	}
	sp, ok := s.pkgs[path]
	if !ok {
		return s.std.Import(path)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: s}
	p, err := conf.Check(path, s.fset, sp.files, info)
	if err != nil {
		return nil, err
	}
	for id, obj := range info.Uses {
		if sp.receiverIdents[id] {
			continue
		}
		if k := s.key(obj); k != "" {
			s.used[k] = true
		}
	}
	for _, f := range sp.files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			user := s.key(info.Defs[fd.Name])
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok || info.Uses[id] == nil {
					return true
				}
				if k := s.key(info.Uses[id]); k != "" && user != "" {
					if s.users[k] == nil {
						s.users[k] = map[string]bool{}
					}
					s.users[k][user] = true
				}
				return true
			})
		}
	}
	s.plain[path] = p
	return p, nil
}

// linkInterfaces marks a method used when a module-declared interface
// that its type implements has that method used.
func (s *scan) linkInterfaces() {
	var ifaces []*types.Named
	var concrete []*types.Named
	for _, p := range s.plain {
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if types.IsInterface(named) {
				ifaces = append(ifaces, named)
			} else {
				concrete = append(concrete, named)
			}
		}
	}
	for _, in := range ifaces {
		it := in.Underlying().(*types.Interface)
		for _, c := range concrete {
			if !types.Implements(c, it) && !types.Implements(types.NewPointer(c), it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				im := it.Method(i)
				if !s.used[s.key(im)] {
					continue
				}
				obj, _, _ := types.LookupFieldOrMethod(c, true, c.Obj().Pkg(), im.Name())
				if m, ok := obj.(*types.Func); ok {
					s.used[s.key(m)] = true
				}
			}
		}
	}
}

// key names a module-level object or method of a named type as
// "importpath.Name" or "importpath.Type.Method"; other objects get "".
func (s *scan) key(obj types.Object) string {
	if obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), s.module) {
		return ""
	}
	if f, ok := obj.(*types.Func); ok {
		f = f.Origin()
		if recv := f.Signature().Recv(); recv != nil {
			rt := recv.Type()
			if ptr, ok := rt.(*types.Pointer); ok {
				rt = ptr.Elem()
			}
			if named, ok := rt.(*types.Named); ok {
				return f.Pkg().Path() + "." + named.Obj().Name() + "." + f.Name()
			}
			return ""
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}
