package macsvet

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// checkDepGraph enforces the dependence-analyzer contract the generic
// exhaustive rule cannot see: internal/depgraph's EdgeKind enum must
// carry the macsvet:exhaustive marker, and the critical-path solver's
// edgeWeight function must contain a switch naming every member. The
// generic rule only fires when a switch names SOME member — if the
// solver's switch were deleted or rewritten as an if-chain, it would go
// silent while every new edge kind silently contributed zero latency to
// t_CP. The rule is a no-op for modules without the package (fixtures).
func checkDepGraph(m *Module) []Finding {
	dg := m.Pkgs[m.Path+"/internal/depgraph"]
	if dg == nil {
		return nil
	}
	var fs []Finding
	kinds, kindPos := typedConsts(dg, "EdgeKind")
	if len(kinds) == 0 {
		fs = append(fs, Finding{Pos: m.Fset.Position(pkgPos(dg)), Rule: "depgraph",
			Message: "internal/depgraph: no EdgeKind members found; the dependence-edge taxonomy is gone"})
		return fs
	}
	if !enumMarked(dg, "EdgeKind") {
		fs = append(fs, Finding{Pos: m.Fset.Position(kindPos[0]), Rule: "depgraph",
			Message: "EdgeKind lost its macsvet:exhaustive marker; switches over edge kinds are no longer checked"})
	}
	fn := findFunc(dg, "edgeWeight")
	if fn == nil {
		fs = append(fs, Finding{Pos: m.Fset.Position(kindPos[0]), Rule: "depgraph",
			Message: "internal/depgraph: no edgeWeight function; the CP solver no longer decides a timing contribution per edge kind"})
		return fs
	}
	covered := map[string]bool{}
	ast.Inspect(fn, func(n ast.Node) bool {
		sw, ok := n.(*ast.SwitchStmt)
		if !ok {
			return true
		}
		for _, cn := range caseNames(sw) {
			if cn.qual == "" {
				covered[cn.name] = true
			}
		}
		return true
	})
	var missing []string
	for _, k := range kinds {
		if !covered[k] {
			missing = append(missing, k)
		}
	}
	if len(missing) > 0 {
		fs = append(fs, Finding{Pos: m.Fset.Position(fn.Pos()), Rule: "depgraph",
			Message: fmt.Sprintf("edgeWeight does not handle edge kind(s) %s; every EdgeKind member must decide its critical-path timing contribution",
				strings.Join(missing, ", "))})
	}
	return fs
}

// enumMarked reports whether typeName's declaration in p carries the
// macsvet:exhaustive marker.
func enumMarked(p *Pkg, typeName string) bool {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				if ts.Name.Name == typeName &&
					(hasMarker(gd.Doc) || hasMarker(ts.Doc) || hasMarker(ts.Comment)) {
					return true
				}
			}
		}
	}
	return false
}

// findFunc returns the declaration of the named top-level function in p,
// or nil.
func findFunc(p *Pkg, name string) *ast.FuncDecl {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == name {
				return fd
			}
		}
	}
	return nil
}

// pkgPos returns a real source anchor for package-level findings: the
// package clause of the first source file. Diagnostics must always carry
// a file:line (token.NoPos renders as "-", which breaks the CLI's
// file:line:col contract).
func pkgPos(p *Pkg) token.Pos {
	if len(p.Files) > 0 {
		return p.Files[0].Package
	}
	return token.NoPos
}

// typedConsts returns the named members of type typeName declared in
// const blocks of p, in declaration order, sentinels excluded.
func typedConsts(p *Pkg, typeName string) ([]string, []token.Pos) {
	var names []string
	var poss []token.Pos
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			cur := ""
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				switch {
				case vs.Type != nil:
					cur = ""
					if id, ok := vs.Type.(*ast.Ident); ok {
						cur = id.Name
					}
				case len(vs.Values) > 0:
					cur = ""
				}
				if cur != typeName {
					continue
				}
				for _, n := range vs.Names {
					if n.Name == "_" || sentinel(n.Name) {
						continue
					}
					names = append(names, n.Name)
					poss = append(poss, n.Pos())
				}
			}
		}
	}
	return names, poss
}
