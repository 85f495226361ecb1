package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one loaded, parsed and (best-effort) type-checked package.
type Package struct {
	// Path is the import path ("github.com/upin/scionpath/internal/docdb"),
	// or the directory base name for packages loaded outside a module.
	Path string
	// Name is the package clause name.
	Name string
	// Dir is the absolute directory.
	Dir string
	// Files are the parsed source files (comments retained).
	Files []*ast.File
	// Filenames parallels Files.
	Filenames []string
	// Types is the type-checked package; nil when type-checking failed hard.
	Types *types.Package
	// Info holds resolved uses/defs/types; nil when type-checking failed.
	Info *types.Info
	// TypeErrors collects soft type-check errors (the package is still
	// analyzed; NeedsTypes analyzers run on whatever resolved).
	TypeErrors []error

	imports []string
}

// LoadConfig controls module loading.
type LoadConfig struct {
	// Dir is where pattern resolution starts; the module root is found by
	// walking up to the nearest go.mod. Defaults to ".".
	Dir string
}

// Load parses and type-checks the packages matching patterns, in one
// sequential pass (_test.go files are not loaded). Patterns
// follow the go tool's shape: "./..." for everything, "./internal/..." for
// a subtree, "./internal/docdb" for one package. All module packages are
// loaded (dependencies must type-check in order); patterns select which are
// returned for analysis.
func Load(cfg LoadConfig, patterns ...string) ([]*Package, *token.FileSet, error) {
	dir := cfg.Dir
	if dir == "" {
		dir = "."
	}
	absDir, err := filepath.Abs(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("lint: resolve %s: %w", dir, err)
	}
	root, modPath, err := findModule(absDir)
	if err != nil {
		return nil, nil, err
	}

	fset := token.NewFileSet()
	pkgs, err := parseTree(fset, root, modPath)
	if err != nil {
		return nil, nil, err
	}
	if err := typeCheck(fset, modPath, pkgs); err != nil {
		return nil, nil, err
	}

	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	selected := selectPackages(pkgs, root, absDir, patterns)
	sort.Slice(selected, func(i, j int) bool { return selected[i].Path < selected[j].Path })
	return selected, fset, nil
}

// findModule walks up from dir to the nearest go.mod and returns the module
// root and module path. A directory tree without go.mod is loaded as a
// single-package "ad hoc" module rooted at dir (used by the fixture tests).
func findModule(dir string) (root, modPath string, err error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			// No module: treat the starting directory itself as the root.
			return dir, filepath.Base(dir), nil
		}
		d = parent
	}
}

// parseTree walks the module and parses every package directory, skipping
// testdata, vendor, hidden and underscore-prefixed directories.
func parseTree(fset *token.FileSet, root, modPath string) (map[string]*Package, error) {
	pkgs := make(map[string]*Package)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return fmt.Errorf("lint: walk %s: %w", root, err)
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		pkg, err := parseDir(fset, path)
		if err != nil || pkg == nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if rel == "." {
			pkg.Path = modPath
		} else {
			pkg.Path = modPath + "/" + filepath.ToSlash(rel)
		}
		pkgs[pkg.Path] = pkg
		return nil
	})
	if err != nil {
		return nil, err
	}
	return pkgs, nil
}

// parseDir parses one directory's .go files into a Package, or nil when the
// directory holds no Go sources.
func parseDir(fset *token.FileSet, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: read %s: %w", dir, err)
	}
	pkg := &Package{Dir: dir}
	importSet := make(map[string]bool)
	for _, e := range entries {
		fn := e.Name()
		if e.IsDir() || !strings.HasSuffix(fn, ".go") || strings.HasSuffix(fn, "_test.go") || strings.HasPrefix(fn, ".") || strings.HasPrefix(fn, "_") {
			continue
		}
		full := filepath.Join(dir, fn)
		f, err := parser.ParseFile(fset, full, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", full, err)
		}
		pkg.Files = append(pkg.Files, f)
		pkg.Filenames = append(pkg.Filenames, full)
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err == nil {
				importSet[p] = true
			}
		}
	}
	if len(pkg.Files) == 0 {
		return nil, nil
	}
	pkg.Name = pkg.Files[0].Name.Name
	for p := range importSet {
		pkg.imports = append(pkg.imports, p)
	}
	sort.Strings(pkg.imports)
	return pkg, nil
}

// moduleImporter resolves module-internal imports to already-checked
// packages and everything else (the standard library) through the source
// importer, which parses GOROOT sources — no pre-compiled export data or
// external tooling needed.
type moduleImporter struct {
	modPath string
	checked map[string]*types.Package
	std     types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if path == m.modPath || strings.HasPrefix(path, m.modPath+"/") {
		if p, ok := m.checked[path]; ok {
			return p, nil
		}
		return nil, fmt.Errorf("lint: internal package %s not checked (import cycle or failed dependency?)", path)
	}
	return m.std.Import(path)
}

// typeCheck checks every package in dependency order so that internal
// imports resolve to fully checked packages. Soft errors are collected per
// package; a package whose check fails outright stops the load.
func typeCheck(fset *token.FileSet, modPath string, pkgs map[string]*Package) error {
	order, err := topoSort(pkgs) // also rejects import cycles up front
	if err != nil {
		return err
	}
	imp := &moduleImporter{
		modPath: modPath,
		checked: make(map[string]*types.Package, len(pkgs)),
		std:     importer.ForCompiler(fset, "source", nil),
	}
	for _, pkg := range order {
		conf := types.Config{
			Importer: imp,
			Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		tpkg, err := conf.Check(pkg.Path, fset, pkg.Files, info)
		if tpkg == nil {
			return fmt.Errorf("lint: type-check %s: %w", pkg.Path, err)
		}
		pkg.Types = tpkg
		pkg.Info = info
		imp.checked[pkg.Path] = tpkg
	}
	return nil
}

// topoSort orders packages so every module-internal import precedes its
// importer.
func topoSort(pkgs map[string]*Package) ([]*Package, error) {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	state := make(map[string]int, len(pkgs))
	var order []*Package
	var visit func(path string) error
	visit = func(path string) error {
		pkg, ok := pkgs[path]
		if !ok {
			return nil // stdlib or unknown: the importer handles it
		}
		switch state[path] {
		case grey:
			return fmt.Errorf("lint: import cycle through %s", path)
		case black:
			return nil
		}
		state[path] = grey
		for _, imp := range pkg.imports {
			if err := visit(imp); err != nil {
				return err
			}
		}
		state[path] = black
		order = append(order, pkg)
		return nil
	}
	paths := make([]string, 0, len(pkgs))
	for p := range pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// selectPackages filters loaded packages by the go-tool-style patterns,
// resolved relative to invokeDir.
func selectPackages(pkgs map[string]*Package, root, invokeDir string, patterns []string) []*Package {
	var out []*Package
	for _, pkg := range pkgs {
		for _, pat := range patterns {
			if matchPattern(pkg.Dir, root, invokeDir, pat) {
				out = append(out, pkg)
				break
			}
		}
	}
	return out
}

// matchPattern reports whether the package directory matches one pattern.
// Supported shapes: "./...", "dir/...", "./dir", "dir", ".".
func matchPattern(pkgDir, root, invokeDir, pat string) bool {
	base := invokeDir
	pat = filepath.ToSlash(pat)
	rec := false
	if pat == "..." || strings.HasSuffix(pat, "/...") {
		rec = true
		pat = strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
	}
	if pat == "" || pat == "." {
		pat = "."
	}
	target := filepath.Clean(filepath.Join(base, filepath.FromSlash(pat)))
	if rec {
		rel, err := filepath.Rel(target, pkgDir)
		return err == nil && rel != ".." && !strings.HasPrefix(rel, ".."+string(filepath.Separator))
	}
	return filepath.Clean(pkgDir) == target
}
