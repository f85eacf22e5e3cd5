package analysis

import (
	"go/ast"
	"go/types"
)

// SeededRandConfig selects the deterministic packages and the sanctioned
// wall-clock bridge for the seededrand analyzer.
type SeededRandConfig struct {
	// Packages are the deterministic packages (exact import paths or
	// module-relative suffixes). Inside them every random draw must come
	// from an explicitly seeded *rand.Rand and no code may read the wall
	// clock.
	Packages []string
	// WallTypes maps a package (path or suffix) to the name of the one
	// type allowed to read the wall clock there — the designated bridge
	// between deterministic code and real time. Within that package, only
	// the type's methods and its New<Type> constructor may call time.Now,
	// time.Since, or time.Until.
	WallTypes map[string]string
}

// DefaultSeededRandConfig is the repo's determinism perimeter: every
// package whose results must be byte-reproducible from one master seed
// (the PR 7 seeding audit, now enforced mechanically). vclock.Wall is the
// sole sanctioned wall-clock bridge.
func DefaultSeededRandConfig() SeededRandConfig {
	return SeededRandConfig{
		Packages: []string{
			"internal/des",
			"internal/netsim",
			"internal/loadgen",
			"internal/vclock",
			"internal/faults",
			"internal/cluster",
			"internal/broker",
			"internal/sched",
			"internal/contention",
		},
		WallTypes: map[string]string{"internal/vclock": "Wall"},
	}
}

// bannedWallFuncs are the wall-clock reads seededrand rejects. time.Sleep
// is deliberately not listed: sleeping delays execution but never feeds a
// nondeterministic value into a result.
var bannedWallFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// allowedRandConstructors are the package-level math/rand (and
// math/rand/v2) functions that are fine in deterministic code: they build
// explicitly seeded generators rather than drawing from the global one.
var allowedRandConstructors = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
	// math/rand/v2 seeded source constructors.
	"NewPCG":     true,
	"NewChaCha8": true,
}

// SeededRand returns the seededrand analyzer: deterministic packages must
// draw randomness from explicitly seeded generators and must not read the
// wall clock.
func SeededRand(cfg SeededRandConfig) *Analyzer {
	a := &Analyzer{
		Name: "seededrand",
		Doc:  "deterministic packages use only seeded rand.Rand and never read the wall clock",
	}
	a.Run = func(u *Unit) []Diagnostic {
		var ds []Diagnostic
		for _, pkg := range u.Pkgs {
			if !matchesAny(pkg.ImportPath, cfg.Packages) {
				continue
			}
			wallType := ""
			for pat, typ := range cfg.WallTypes {
				if pathMatches(pkg.ImportPath, pat) {
					wallType = typ
				}
			}
			for _, file := range pkg.Files {
				ds = append(ds, seededRandFile(u, pkg, file, wallType)...)
			}
		}
		return ds
	}
	return a
}

// seededRandFile walks one file, tracking the enclosing function so the
// sanctioned wall-clock type's own methods stay exempt.
func seededRandFile(u *Unit, pkg *Package, file *ast.File, wallType string) []Diagnostic {
	var ds []Diagnostic
	for _, decl := range file.Decls {
		exemptWall := false
		if fd, ok := decl.(*ast.FuncDecl); ok && wallType != "" {
			exemptWall = wallClockFunc(fd, wallType)
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			qual, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := pkg.Info.Uses[qual].(*types.PkgName)
			if !ok {
				return true
			}
			switch pn.Imported().Path() {
			case "math/rand", "math/rand/v2":
				obj := pkg.Info.Uses[sel.Sel]
				if _, isFunc := obj.(*types.Func); isFunc && !allowedRandConstructors[sel.Sel.Name] {
					ds = append(ds, u.diag("seededrand", sel.Pos(),
						"global %s.%s draws from the shared unseeded generator; use a rand.New(rand.NewSource(seed)) derived from the run's master seed",
						pn.Imported().Name(), sel.Sel.Name))
				}
			case "time":
				if bannedWallFuncs[sel.Sel.Name] && !exemptWall {
					ds = append(ds, u.diag("seededrand", sel.Pos(),
						"wall-clock time.%s in deterministic package %s; take time from a vclock.Clock or an explicit timestamp argument",
						sel.Sel.Name, pkg.Types.Name()))
				}
			}
			return true
		})
	}
	return ds
}

// wallClockFunc reports whether fd is part of the sanctioned wall-clock
// bridge: a method on the named type (value or pointer receiver) or its
// New<Type> constructor.
func wallClockFunc(fd *ast.FuncDecl, wallType string) bool {
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		t := fd.Recv.List[0].Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		if id, ok := t.(*ast.Ident); ok && id.Name == wallType {
			return true
		}
		return false
	}
	return fd.Name.Name == "New"+wallType
}
