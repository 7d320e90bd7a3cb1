// Package macsvet implements the repo's custom static analyzers: checks
// over the module's own Go source that the compiler cannot express and
// the tests only probe dynamically. It is stdlib-only (go/parser +
// go/ast), loads the whole module from its root, and reports findings
// with file positions; cmd/macsvet is the CLI run in CI.
//
// Rules:
//
//   - exhaustive: a switch over an enum type whose declaration doc
//     carries a "macsvet:exhaustive" marker must name every member of
//     the enum (sentinel constants with a num/Num prefix excluded); a
//     default clause does not excuse a missing member, because the
//     marker exists precisely to surface switches that silently ignore
//     newly added members.
//   - depgraph: internal/depgraph's EdgeKind enum keeps its
//     macsvet:exhaustive marker and the critical-path solver's
//     edgeWeight function contains a switch naming every member, so an
//     edge kind cannot be added without deciding its timing
//     contribution to t_CP.
//   - nopanic: no naked panic() in non-test code of any package
//     reachable from internal/service's import graph — a panic there is
//     a crashed request at best and a dead daemon at worst. Functions
//     named Must* are exempt: they are documented test-only helpers.
//   - musttest: module-internal Must* helpers that panic may only be
//     called from _test.go files (or from other Must* helpers).
//   - spanend: every *obs.Span started via obs.Start in the facade
//     (package macs) or in internal/service is ended in the statement
//     list that started it, before any statement that can return out of
//     the function — an unended span drops its stage from traces and
//     the /metrics latency histograms.
package macsvet

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

// Finding is one rule violation, anchored to a source position.
type Finding struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Rule, f.Message)
}

// Pkg is one parsed package of the module.
type Pkg struct {
	ImportPath string
	Dir        string
	Name       string
	Files      []*ast.File // non-test sources
	TestFiles  []*ast.File
	FileNames  map[*ast.File]string
	// Imports maps each non-test file's local import names to their
	// import paths.
	Imports map[*ast.File]map[string]string
}

// Module is the parsed module under analysis.
type Module struct {
	Path string // module path from go.mod
	Root string
	Fset *token.FileSet
	Pkgs map[string]*Pkg // by import path
}

// Load parses every package under root (the directory holding go.mod),
// skipping testdata, vendor, hidden and underscore-prefixed directories.
func Load(root string) (*Module, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &Module{Path: modPath, Root: root, Fset: token.NewFileSet(), Pkgs: map[string]*Pkg{}}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(m.Fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("macsvet: %w", err)
		}
		dir := filepath.Dir(path)
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		imp := modPath
		if rel != "." {
			imp = modPath + "/" + filepath.ToSlash(rel)
		}
		p := m.Pkgs[imp]
		if p == nil {
			p = &Pkg{
				ImportPath: imp,
				Dir:        dir,
				FileNames:  map[*ast.File]string{},
				Imports:    map[*ast.File]map[string]string{},
			}
			m.Pkgs[imp] = p
		}
		p.FileNames[f] = path
		if strings.HasSuffix(path, "_test.go") {
			p.TestFiles = append(p.TestFiles, f)
			return nil
		}
		p.Name = f.Name.Name
		p.Files = append(p.Files, f)
		p.Imports[f] = importMap(f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Resolve default local names of module-internal imports to the real
	// package names (a directory's base name is only a convention).
	for _, p := range m.Pkgs {
		for _, imps := range p.Imports {
			for local, path := range imps {
				if tp, ok := m.Pkgs[path]; ok && local == filepath.Base(path) && tp.Name != "" {
					delete(imps, local)
					imps[tp.Name] = path
				}
			}
		}
	}
	return m, nil
}

func modulePath(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("macsvet: %w (run from the module root)", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("macsvet: no module line in %s", gomod)
}

func importMap(f *ast.File) map[string]string {
	out := map[string]string{}
	for _, spec := range f.Imports {
		path := strings.Trim(spec.Path.Value, `"`)
		local := filepath.Base(path)
		if spec.Name != nil {
			local = spec.Name.Name
			if local == "_" || local == "." {
				continue
			}
		}
		out[local] = path
	}
	return out
}

// Run loads the module rooted at root and applies every rule.
func Run(root string) ([]Finding, error) {
	m, err := Load(root)
	if err != nil {
		return nil, err
	}
	var fs []Finding
	fs = append(fs, checkExhaustive(m)...)
	fs = append(fs, checkDepGraph(m)...)
	fs = append(fs, checkPanics(m)...)
	fs = append(fs, checkMustCalls(m)...)
	fs = append(fs, checkSpanEnd(m)...)
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i].Pos, fs[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return fs[i].Rule < fs[j].Rule
	})
	return fs, nil
}

// sentinel reports whether a constant name is an enum-size sentinel
// (numOps, NumStallCauses) rather than a member.
func sentinel(name string) bool {
	return strings.HasPrefix(name, "num") || strings.HasPrefix(name, "Num")
}
