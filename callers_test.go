package redpatch

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the exported API in internal/ that the reference
// scan below cannot see being called, each with the reason it stays. Keys
// are "importpath.Name" or "importpath.Type.Method".
var exportAllowlist = map[string]string{
	"redpatch/internal/patch.Outcome.MarshalJSON":            "json.Marshaler: encoding/json calls it when redpatchd streams fleet simulation events",
	"redpatch/internal/patch.Outcome.UnmarshalJSON":          "json.Unmarshaler: the decoding half of the event wire format MarshalJSON writes",
	"redpatch/internal/vulndb.DB.MarshalJSON":                "json.Marshaler: encoding/json calls it when the facade fingerprints the vulnerability dataset",
	"redpatch/internal/vulndb.DB.UnmarshalJSON":              "json.Unmarshaler: the decoding half of the dataset format MarshalJSON writes",
	"redpatch/internal/vulndb.Component.MarshalJSON":         "json.Marshaler: encoding/json calls it for every record DB.MarshalJSON encodes",
	"redpatch/internal/vulndb.Component.UnmarshalJSON":       "json.Unmarshaler: the decoding half of the record format MarshalJSON writes",
	"redpatch/internal/srn.Kind.String":                      "fmt.Stringer: Net.Validate formats an invalid transition kind with %v",
	"redpatch/internal/paperdata.Design.String":              "fmt.Stringer: Design.Validate formats the design with %s in its error",
	"redpatch/internal/trace.LogHandler.Enabled":             "slog.Handler: log/slog calls it on redpatchd's logger",
	"redpatch/internal/trace.LogHandler.Handle":              "slog.Handler: log/slog calls it on redpatchd's logger",
	"redpatch/internal/trace.LogHandler.WithAttrs":           "slog.Handler: log/slog calls it on redpatchd's logger",
	"redpatch/internal/trace.LogHandler.WithGroup":           "slog.Handler: log/slog calls it on redpatchd's logger",
	"redpatch/internal/sim.Estimate.Contains":                "oracle entry point: the Monte-Carlo oracle's test asks whether a closed form lies in its 95% interval",
	"redpatch/internal/redundancy.Evaluator.EvaluateRollout": "oracle entry point: FuzzFastPathMatchesOracles and the rollout suites drive the unmemoized rollout path through it",
}

// TestEveryExportedNameHasACaller fails on every exported top-level name,
// and every method of an exported type, in internal/ that nothing uses but
// its own package's tests. It type-checks every package of the module
// (tests included) and the bench module, which compiles against the
// facade and internal/trace. A use counts from non-test code anywhere, or
// from another package's tests. A method also counts as used when an
// interface declared in the module that its type implements has that
// method called. This is a reference scan, not a call graph: a name used
// only by other dead code passes.
func TestEveryExportedNameHasACaller(t *testing.T) {
	unused, err := unusedExports(".")
	if err != nil {
		t.Fatal(err)
	}
	var flagged []string
	for _, k := range unused {
		if _, ok := exportAllowlist[k]; !ok {
			flagged = append(flagged, k)
		}
	}
	if len(flagged) > 0 {
		t.Errorf("%d exported names in internal/ have no caller outside their own package's tests; delete them (or unexport them if their package still uses them):\n\t%s",
			len(flagged), strings.Join(flagged, "\n\t"))
	}
	stale := map[string]bool{}
	for k := range exportAllowlist {
		stale[k] = true
	}
	for _, k := range unused {
		delete(stale, k)
	}
	for k := range stale {
		t.Errorf("allowlist entry %s is not an unused export any more; remove it", k)
	}
}

const modulePath = "redpatch"

// srcPackage is one directory's parsed files, split the way go test
// builds them.
type srcPackage struct {
	files, tests, xtests []*ast.File
	testFiles            map[string]bool
	receiverIdents       map[*ast.Ident]bool
}

// scan type-checks the module and records, for each exported internal
// name, whether anything but its own package's tests uses it.
type scan struct {
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*srcPackage
	plain map[string]*types.Package
	used  map[string]bool
}

func unusedExports(root string) ([]string, error) {
	s := &scan{
		fset:  token.NewFileSet(),
		pkgs:  map[string]*srcPackage{},
		plain: map[string]*types.Package{},
		used:  map[string]bool{},
	}
	s.std = importer.ForCompiler(s.fset, "source", nil)
	if err := s.parse(root); err != nil {
		return nil, err
	}
	var paths []string
	for p := range s.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := s.importPlain(p); err != nil {
			return nil, err
		}
	}
	for _, p := range paths {
		sp := s.pkgs[p]
		if len(sp.tests) == 0 && len(sp.xtests) == 0 {
			continue
		}
		withTests, err := s.check(p, append(append([]*ast.File{}, sp.files...), sp.tests...), s, p)
		if err != nil {
			return nil, err
		}
		if len(sp.xtests) > 0 {
			x := &xtestImporter{scan: s, under: p, test: withTests, cache: map[string]*types.Package{}}
			if _, err := s.check(p+"_test", sp.xtests, x, p); err != nil {
				return nil, err
			}
		}
	}
	s.linkInterfaces()

	var unused []string
	for _, p := range paths {
		if !strings.HasPrefix(p, modulePath+"/internal/") {
			continue
		}
		scope := s.plain[p].Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !s.used[objectKey(obj)] {
				unused = append(unused, objectKey(obj))
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
				if m.Exported() && !s.used[objectKey(m)] {
					unused = append(unused, objectKey(m))
				}
			}
		}
	}
	sort.Strings(unused)
	return unused, nil
}

// parse reads every package directory under root. The bench directory
// is its own module whose path, redpatch/bench, is also its directory.
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
		path := modulePath
		if dir != root {
			path += "/" + filepath.ToSlash(dir)
		}
		sp := &srcPackage{testFiles: map[string]bool{}, receiverIdents: map[*ast.Ident]bool{}}
		for _, set := range []struct {
			names []string
			into  *[]*ast.File
			test  bool
		}{{bp.GoFiles, &sp.files, false}, {bp.TestGoFiles, &sp.tests, true}, {bp.XTestGoFiles, &sp.xtests, true}} {
			for _, name := range set.names {
				file := filepath.Join(dir, name)
				f, err := parser.ParseFile(s.fset, file, nil, parser.SkipObjectResolution)
				if err != nil {
					return err
				}
				*set.into = append(*set.into, f)
				sp.testFiles[file] = set.test
				markReceivers(f, sp.receiverIdents)
			}
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

func (s *scan) Import(path string) (*types.Package, error) { return s.importPlain(path) }

// importPlain type-checks a module package's non-test files once.
func (s *scan) importPlain(path string) (*types.Package, error) {
	if p, ok := s.plain[path]; ok {
		return p, nil
	}
	sp, ok := s.pkgs[path]
	if !ok {
		return s.std.Import(path)
	}
	p, err := s.check(path, sp.files, s, path)
	if err != nil {
		return nil, err
	}
	s.plain[path] = p
	return p, nil
}

// check type-checks files as package path and records their uses. home
// is the package whose tests these files are, if they are tests.
func (s *scan) check(path string, files []*ast.File, imp types.Importer, home string) (*types.Package, error) {
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: imp}
	p, err := conf.Check(path, s.fset, files, info)
	if err != nil {
		return nil, err
	}
	sp := s.pkgs[home]
	for id, obj := range info.Uses {
		if sp.receiverIdents[id] || obj.Pkg() == nil {
			continue
		}
		if obj.Pkg().Path() == home && sp.testFiles[s.fset.File(id.Pos()).Name()] {
			continue
		}
		if k := objectKey(obj); k != "" {
			s.used[k] = true
		}
	}
	return p, nil
}

// xtestImporter resolves imports for an external test package the way go
// test builds it: the package under test with its in-package test files,
// and every module package that depends on it rebuilt against that.
type xtestImporter struct {
	*scan
	under string
	test  *types.Package
	cache map[string]*types.Package
}

func (x *xtestImporter) Import(path string) (*types.Package, error) {
	if path == x.under {
		return x.test, nil
	}
	if p, ok := x.cache[path]; ok {
		return p, nil
	}
	sp, ok := x.pkgs[path]
	if !ok || !x.dependsOn(path, map[string]bool{}) {
		return x.scan.Import(path)
	}
	p, err := x.check(path, sp.files, x, path)
	if err != nil {
		return nil, err
	}
	x.cache[path] = p
	return p, nil
}

func (x *xtestImporter) dependsOn(path string, seen map[string]bool) bool {
	if path == x.under {
		return true
	}
	if seen[path] {
		return false
	}
	seen[path] = true
	for _, imp := range x.plain[path].Imports() {
		if _, ok := x.pkgs[imp.Path()]; ok && x.dependsOn(imp.Path(), seen) {
			return true
		}
	}
	return false
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
				if !s.used[objectKey(im)] {
					continue
				}
				obj, _, _ := types.LookupFieldOrMethod(c, true, c.Obj().Pkg(), im.Name())
				if m, ok := obj.(*types.Func); ok {
					s.used[objectKey(m)] = true
				}
			}
		}
	}
}

// objectKey names a module-level object or method of a named type as
// "importpath.Name" or "importpath.Type.Method"; other objects get "".
func objectKey(obj types.Object) string {
	if obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), modulePath) {
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
