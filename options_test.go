package powerperf

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// optionFile is one parsed Go file and where it sits.
type optionFile struct {
	path    string // slash path from the repository root
	pkgPath string // import path of the file's package
	main    bool   // in the main module
	test    bool
	ast     *ast.File
}

// TestEveryOptionIsSet checks that every exported field of every
// exported *Options, *Config and *Policy struct type in the main
// module's non-test files is set somewhere in the repository outside
// the file that declares it. An option field that no caller sets is not
// a knob but a constant with extra code. Tests, examples and studybench
// count as setters. A setter is a keyed composite literal whose written
// type, resolved through the file's imports, is the struct, or an
// assignment to a field of that name. It parses without type-checking,
// so it stays fast.
func TestEveryOptionIsSet(t *testing.T) {
	files := parseRepository(t, ".")

	// pkgNames maps an import path to its package name, for imports
	// written without a name.
	pkgNames := map[string]string{}
	for _, f := range files {
		if !strings.HasSuffix(f.ast.Name.Name, "_test") {
			pkgNames[f.pkgPath] = f.ast.Name.Name
		}
	}

	// The ledger: type key ("repro/internal/service.Options") → field
	// → declaring file.
	fields := map[string]map[string]string{}
	for _, f := range files {
		if !f.main || f.test {
			continue
		}
		for _, decl := range f.ast.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !ts.Name.IsExported() || !isOptionType(ts.Name.Name) {
					continue
				}
				key := f.pkgPath + "." + ts.Name.Name
				fields[key] = map[string]string{}
				for _, fd := range st.Fields.List {
					for _, n := range fd.Names {
						if n.IsExported() {
							fields[key][n.Name] = f.path
						}
					}
				}
			}
		}
	}
	if len(fields) == 0 {
		t.Fatal("found no option types; is the test running from the repository root?")
	}

	set := map[string]bool{} // "key.Field" set by a literal outside its file
	assigned := map[string][]string{}
	for _, f := range files {
		imports := map[string]string{}
		for _, im := range f.ast.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			name := pkgNames[p]
			if name == "" {
				name = path.Base(p)
			}
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = p
		}
		own := f.pkgPath
		if strings.HasSuffix(f.ast.Name.Name, "_test") {
			own += "_test"
		}
		// typeKey resolves a written struct type to its ledger key.
		typeKey := func(e ast.Expr) string {
			switch e := e.(type) {
			case *ast.Ident:
				return own + "." + e.Name
			case *ast.SelectorExpr:
				if x, ok := e.X.(*ast.Ident); ok && imports[x.Name] != "" {
					return imports[x.Name] + "." + e.Sel.Name
				}
			}
			return ""
		}
		var literal func(lit *ast.CompositeLit, typ ast.Expr)
		literal = func(lit *ast.CompositeLit, typ ast.Expr) {
			if star, ok := typ.(*ast.StarExpr); ok {
				typ = star.X
			}
			var elem ast.Expr // the type of elided element literals
			switch tt := typ.(type) {
			case *ast.ArrayType:
				elem = tt.Elt
			case *ast.MapType:
				elem = tt.Value
			default:
				key := typeKey(typ)
				for _, el := range lit.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							if decl, ok := fields[key][id.Name]; ok && decl != f.path {
								set[key+"."+id.Name] = true
							}
						}
					}
				}
				return
			}
			for _, el := range lit.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				if inner, ok := el.(*ast.CompositeLit); ok && inner.Type == nil {
					literal(inner, elem)
				}
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if n.Type != nil {
					literal(n, n.Type)
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						assigned[sel.Sel.Name] = append(assigned[sel.Sel.Name], f.path)
					}
				}
			}
			return true
		})
	}

	var unset []string
	for key, names := range fields {
		for name, decl := range names {
			if set[key+"."+name] {
				continue
			}
			if assignedOutside(assigned[name], decl) {
				continue
			}
			unset = append(unset, key+"."+name+" ("+decl+")")
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("option %s is never set: make it a constant, or set it where it matters", u)
	}
}

func isOptionType(name string) bool {
	return strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config") ||
		strings.HasSuffix(name, "Policy")
}

func assignedOutside(files []string, decl string) bool {
	for _, f := range files {
		if f != decl {
			return true
		}
	}
	return false
}

// parseRepository parses every Go file under root, skipping hidden
// directories and testdata. Files under a nested go.mod belong to that
// module, not the main one.
func parseRepository(t *testing.T, root string) []optionFile {
	t.Helper()
	modules := map[string]string{} // directory → module path
	var files []optionFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			if mod, err := os.ReadFile(filepath.Join(p, "go.mod")); err == nil {
				for _, line := range strings.Split(string(mod), "\n") {
					if m, ok := strings.CutPrefix(line, "module "); ok {
						modules[p] = strings.TrimSpace(m)
					}
				}
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		dir := filepath.Dir(p)
		modDir := dir
		for modules[modDir] == "" && modDir != root {
			modDir = filepath.Dir(modDir)
		}
		rel, err := filepath.Rel(modDir, dir)
		if err != nil {
			return err
		}
		pkgPath := modules[modDir]
		if rel != "." {
			pkgPath += "/" + filepath.ToSlash(rel)
		}
		af, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, optionFile{
			path:    filepath.ToSlash(p),
			pkgPath: pkgPath,
			main:    modDir == root,
			test:    strings.HasSuffix(p, "_test.go"),
			ast:     af,
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}
