package softbarrier

import (
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The guards keep the design rules that hold the paper's cost model in
// place: one fetch-and-add per counter visit, one re-plan rule, one frame
// reader, and no code that no binary reaches. Each reads the module's Go
// source as syntax, so a comment or a string literal never trips one and
// an alias never slips past one. The last keeps the documents' pointers
// into the design, the tests and the tree live. Each also runs on its
// fixture under testdata/guard/<slug>, which holds the forbidden
// identifiers, imports, directories or references and, in want.txt,
// exactly what the guard must report there.
var guards = []guard{
	{
		slug: "inlined-arrive",
		rule: "an unmeasured arrival is an inlined compare, not a call",
		// Recorder.Arrive's guard sits exactly at the inliner's budget; a
		// second condition falls out of it and every arrival pays a call.
		check: inlinesArrive,
	},
	{
		slug: "lock-free-fold",
		rule: "the commutative fold takes no lock",
		// A collective visit is the plain visit plus a cell write: the
		// per-node fold lock and its FoldNode must not come back.
		bans: []ban{{scope: scope{in: []string{"."}, tests: true}, names: []string{"FoldNode", "foldNode"}}},
	},
	{
		slug: "kernel-by-op-not-name",
		rule: "a word kernel is chosen by what an op is, never by its name",
		// rt.Reducer folds a built-in op in a register when the op's Fold is
		// that built-in's fold function; a user op may reuse a built-in's
		// name with a different fold. No non-test runtime code compares,
		// switches on or looks up an op's Name.
		check: opNameDecides,
	},
	{
		slug: "one-replan-rule",
		rule: "one re-plan rule, in loadmodel's one controller, on atomics",
		// netbarrier's non-test code builds no other tree and owns no
		// re-plan loop; no reconfig package comes back beside the
		// controller; and neither the barrier's release path nor the
		// controller takes a lock. The degree has one source, the model: it
		// plans the first epoch like every later one, every change of it
		// rebuilds (no damper), and no second entry point decides it for a
		// caller. The live barrier, the simulator's one planned run loop and
		// EXT3 all step loadmodel.Controller: no second placement loop, plan
		// or order comparison.
		bans: []ban{
			{scope: scope{in: []string{"internal/netbarrier"}}, within: []string{"softbarrier/internal/reconfig", "NewCombiningTree", "NewMCSTree", "NewDynamic"}},
			{scope: scope{in: []string{"reconfigurable.go", "internal/loadmodel/controller.go"}}, imports: []string{"sync"}},
			{scope: scope{in: []string{"reconfigurable.go"}}, names: []string{"minDelta", "plan"}},
			{scope: scope{in: []string{"."}}, names: []string{"InitialDegree", "MinDegreeDelta", "RecommendConfig", "RunPlacement", "orderEq", "sameOrder", "policyOrder"}},
		},
		deleted: []string{"internal/reconfig"},
	},
	{
		slug: "one-frame-reader",
		rule: "one frame reader, no second copy of a frame",
		// Every connection reads through wire.FrameConn, which decodes in
		// place from its own buffer: a buffered reader or writer under it
		// copies each frame once more.
		bans: []ban{{
			scope:   scope{in: []string{"internal/wire", "internal/netbarrier", "internal/shardbarrier"}},
			imports: []string{"bufio"},
			within:  []string{"ReadFrameInto"},
		}},
	},
	{
		slug: "one-leaf-side",
		rule: "one leaf side of the shard protocol, constants for fixed network settings",
		// shardbarrier's link is the only leaf→root speaker; a Client that
		// sends shard frames is the second copy this guard keeps deleted.
		// The dial, join and participant-count bounds each have one value in
		// use, so they are constants rather than options.
		bans: []ban{
			{scope: scope{in: []string{"internal/netbarrier/client.go"}}, within: []string{"TypeShardJoin", "TypeShardArrive"}},
			{scope: scope{in: []string{"."}}, names: []string{"DialAttempts", "DialBackoff", "JoinTimeout", "MaxP"}},
		},
	},
	{
		slug: "no-unreached-names",
		rule: "nothing no binary reaches or can configure",
		// Built with -gcflags=all=-l, no command, example or bench linked
		// these: one release path in the tree core (the broadcast gate), the
		// EWMA placement policy keeps its own averages with no lock, and the
		// simulator code only its own tests called is gone.
		// One fleet shape: every leaf serves every session, so the fleet has
		// no consistent-hash ring and no partial spans; the release fan-out
		// keeps one buffer; and TCP_NODELAY is Go's default, not an option.
		// Scoped by directory: topology.NewRing and ringsim.NewRing stay.
		// Nothing to set that no program sets, and nothing reported twice:
		// the EWMA weight, Trend's window, the hysteresis threshold and the
		// victim's penalty are constants; the epoch is also the rebuild
		// count, under one name; and a client keeps no copy of what each
		// Release carries. barriersim.PolicyRun.Rebuilds stays.
		// One planner, and it runs live (loadmodel.Controller): no offline
		// Profile → Recommend → Build path, no σ feedback interface, no
		// one-shot placement order and no model queries beside
		// OptimalDegree. The root package declares no wait policy of its
		// own, only a test hook sets one, and a distribution is something
		// to sample. loadmodel.Plan, rt.WaitPolicy, stats.Mean and
		// sor.(*TimingModel).MeasuredSigma stay.
		bans: []ban{
			{scope: scope{in: []string{"."}}, within: []string{
				"WithTreeWakeup", "wakeFlag", "awaitWake", "LagEstimator", "FoldLags", "HierarchicalGather", "NewInterconnect",
				"HeavyTail", "HistoryNoise", "ChunkSkew", "ExpectedIdle", "Summarize", "NewHistogram",
			}},
			{scope: scope{in: []string{"internal/shardbarrier"}}, names: []string{"Ring", "NewRing", "DefaultVnodes", "SessionSlot", "LeafAddr"}},
			{scope: scope{in: []string{"internal/netbarrier"}, tests: true}, names: []string{"relScratch", "relPending", "sendJob"}},
			{scope: scope{in: []string{"internal/wire"}}, names: []string{"Nagle"}},
			{scope: scope{in: []string{"."}}, names: []string{"FirstCounterOf", "RootNet"}},
			{scope: scope{in: []string{"reconfigurable.go", "observer.go", "internal/runtime"}}, names: []string{"Adaptations", "Epochs", "Rebuilds"}},
			{scope: scope{in: []string{"internal/runtime/sigma.go"}}, names: []string{"weight"}},
			{scope: scope{in: []string{"internal/loadmodel"}}, names: []string{"Weight", "Window", "MinShift"}},
			{scope: scope{in: []string{"internal/barriersim"}}, names: []string{"CommCost", "commCost"}},
			{scope: scope{in: []string{"internal/netbarrier/client.go"}}, names: []string{"epoch", "degree", "sigma"}},
			{scope: scope{in: []string{"."}}, names: []string{
				"Profile", "Recommendation", "Recommend", "RecommendMeasured", "SigmaSource", "ReduceOrder",
				"EstimateSyncDelay", "ExpectedLastArrival", "WithPlacement", "placeOrder", "WithWaitPolicy",
			}},
			{scope: scope{in: []string{"*.go"}}, decls: []string{"Plan", "MeasuredSigma", "WaitPolicy", "DefaultWaitPolicy"}},
			{scope: scope{in: []string{"internal/stats/dist.go"}}, names: []string{"Mean", "StdDev", "Quantile", "Shifted"}},
			{scope: scope{in: []string{"internal/sor"}}, names: []string{"Jitter", "jitter"}},
		},
	},
	{
		slug: "doc-refs",
		rule: "every section, test and path a document names exists",
		// Each mechanism is described once, in DESIGN.md; README,
		// EXPERIMENTS and the package docs point into it, at tests and at
		// files. A rename or a move that leaves a pointer behind sends the
		// reader nowhere. ROADMAP, CHANGES and perf/ name deleted things on
		// purpose and are not read.
		check: liveDocRefs,
	},
}

// A guard is one design rule, checked by its bans, its deleted paths and
// its check.
type guard struct {
	slug    string // the subtest's name and the fixture's directory
	rule    string // what the guard keeps true
	bans    []ban
	deleted []string                // slash paths, relative to the tree's root, that must not exist
	check   func(*srcTree) []string // nil when the bans say it all
}

func (g guard) violations(tr *srcTree) []string {
	var bad []string
	for _, b := range g.bans {
		bad = append(bad, b.violations(tr)...)
	}
	for _, p := range g.deleted {
		if _, err := os.Stat(filepath.Join(tr.root, p)); !errors.Is(err, fs.ErrNotExist) {
			bad = append(bad, p+": exists")
		}
	}
	if g.check != nil {
		bad = append(bad, g.check(tr)...)
	}
	return bad
}

// A scope is the part of a tree a rule reads.
type scope struct {
	// in holds slash paths relative to the tree's root: a directory covers
	// every file below it, a file itself, "." the whole tree, and a
	// pattern the files it matches ("*.go": the root package's).
	in    []string
	tests bool // _test.go files count too
}

// files returns the files of tr in s, and a violation for each entry of
// in that covers no file, since a rule over nothing holds vacuously.
func (s scope) files(tr *srcTree) ([]goFile, []string) {
	var out []goFile
	var bad []string
	for _, p := range s.in {
		n := 0
		for _, f := range tr.files {
			match, _ := path.Match(p, f.path) // a file, or a pattern
			if (s.tests || !f.test) && (p == "." || match || strings.HasPrefix(f.path, p+"/")) {
				out = append(out, f)
				n++
			}
		}
		if n == 0 {
			bad = append(bad, p+": no Go file in scope, so the rule checks nothing")
		}
	}
	return out, bad
}

// A ban keeps identifiers and import paths out of the files in its scope.
type ban struct {
	scope
	names []string // identifiers banned by their whole name
	// decls are names nothing in scope may declare (a type, function,
	// method, variable, constant, field or parameter) while using one
	// that another package declares, as in rt.WaitPolicy, stays legal.
	decls   []string
	within  []string // substrings no identifier or import path may contain
	imports []string // import paths banned by their whole path
}

func (b ban) violations(tr *srcTree) []string {
	files, bad := b.files(tr)
	banned := func(s string) bool {
		return slices.Contains(b.names, s) || slices.ContainsFunc(b.within, func(w string) bool { return strings.Contains(s, w) })
	}
	for _, f := range files {
		for _, imp := range f.syntax.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); banned(path) || slices.Contains(b.imports, path) {
				bad = append(bad, fmt.Sprintf("%s: imports %q", tr.pos(f, imp.Pos()), path))
			}
		}
		declares := func(ids ...*ast.Ident) {
			for _, id := range ids {
				if slices.Contains(b.decls, id.Name) {
					bad = append(bad, fmt.Sprintf("%s: declares %s", tr.pos(f, id.Pos()), id.Name))
				}
			}
		}
		ast.Inspect(f.syntax, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if banned(n.Name) {
					bad = append(bad, fmt.Sprintf("%s: names %s", tr.pos(f, n.Pos()), n.Name))
				}
			case *ast.FuncDecl:
				declares(n.Name)
			case *ast.TypeSpec:
				declares(n.Name)
			case *ast.ValueSpec:
				declares(n.Names...)
			case *ast.Field:
				declares(n.Names...)
			}
			return true
		})
	}
	return bad
}

// inlinesArrive requires the compiler to report (*Recorder).Arrive as
// inlinable when it builds internal/runtime with -m.
func inlinesArrive(tr *srcTree) []string {
	out, err := tr.compileRuntime()
	if err != nil {
		return []string{fmt.Sprintf("internal/runtime: go build -gcflags=-m: %v\n%s", err, out)}
	}
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasSuffix(line, ": can inline (*Recorder).Arrive") {
			return nil
		}
	}
	return []string{"internal/runtime: go build -gcflags=-m does not report (*Recorder).Arrive inlinable"}
}

// opNameDecides reports each place non-test internal/runtime code uses a
// Name: an operand of == or != that mentions one, a switch tag or case
// that does, an index that does, and a strings function given one.
func opNameDecides(tr *srcTree) []string {
	files, bad := scope{in: []string{"internal/runtime"}}.files(tr)
	report := func(f goFile, n ast.Node, how string) {
		bad = append(bad, fmt.Sprintf("%s: %s a Name", tr.pos(f, n.Pos()), how))
	}
	for _, f := range files {
		pkgStrings := importName(f.syntax, "strings")
		ast.Inspect(f.syntax, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if (n.Op == token.EQL || n.Op == token.NEQ) && (mentionsName(n.X) || mentionsName(n.Y)) {
					report(f, n, "compares")
				}
			case *ast.SwitchStmt:
				if n.Tag == nil {
					break
				}
				if mentionsName(n.Tag) {
					report(f, n.Tag, "switches on")
				}
				for _, c := range n.Body.List {
					if slices.ContainsFunc(c.(*ast.CaseClause).List, mentionsName) {
						report(f, c, "switches on")
					}
				}
			case *ast.IndexExpr:
				if mentionsName(n.Index) {
					report(f, n, "indexes by")
				}
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && isIdent(sel.X, pkgStrings) && slices.ContainsFunc(n.Args, mentionsName) {
					report(f, n, "passes strings."+sel.Sel.Name)
				}
			}
			return true
		})
	}
	return bad
}

// mentionsName reports whether the identifier Name appears in e, as a
// selector (op.Name) or on its own.
func mentionsName(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		found = found || isIdent(n, "Name")
		return !found
	})
	return found
}

func isIdent(n ast.Node, name string) bool {
	id, ok := n.(*ast.Ident)
	return ok && id.Name == name
}

// importName returns the name f refers to the package at path by, or ""
// if f does not import it or imports it for its side effects or into its
// own scope.
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p != path {
			continue
		}
		if imp.Name == nil {
			return filepath.Base(path)
		}
		if imp.Name.Name != "_" && imp.Name.Name != "." {
			return imp.Name.Name
		}
	}
	return ""
}

// A srcTree is every Go file under root, parsed with its comments, which
// only liveDocRefs reads. Like the go tool it skips testdata/ and names
// starting with "." or "_", and it skips bench/, the benchmark's own
// module.
type srcTree struct {
	root  string
	fset  *token.FileSet
	files []goFile
	// compileRuntime returns what go build -gcflags=-m ./internal/runtime
	// prints for this tree.
	compileRuntime func() ([]byte, error)
	// deleted holds every guard's deleted paths, which a document may
	// still name.
	deleted []string
}

type goFile struct {
	path   string // slash path relative to the tree's root
	test   bool
	syntax *ast.File
}

func parseTree(root string) (*srcTree, error) {
	tr := &srcTree{root: root, fset: token.NewFileSet()}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel, name := filepath.ToSlash(rel), d.Name()
		if d.IsDir() {
			if rel != "." && (rel == "bench" || name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(tr.fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		tr.files = append(tr.files, goFile{path: rel, test: strings.HasSuffix(name, "_test.go"), syntax: f})
		return nil
	})
	return tr, err
}

func (tr *srcTree) pos(f goFile, p token.Pos) string {
	return fmt.Sprintf("%s:%d", f.path, tr.fset.Position(p).Line)
}

// TestGuards runs every guard on the module, which must satisfy it, and
// on the guard's fixture, where it must report exactly want.txt.
func TestGuards(t *testing.T) {
	mod, err := parseTree(".")
	if err != nil {
		t.Fatal(err)
	}
	mod.compileRuntime = func() ([]byte, error) {
		return exec.Command("go", "build", "-gcflags=-m", "./internal/runtime").CombinedOutput()
	}
	for _, g := range guards {
		mod.deleted = append(mod.deleted, g.deleted...)
	}
	for _, g := range guards {
		t.Run(g.slug, func(t *testing.T) {
			if bad := g.violations(mod); len(bad) > 0 {
				t.Errorf("guard %q fails:\n%s", g.rule, strings.Join(bad, "\n"))
			}
			dir := filepath.Join("testdata", "guard", g.slug)
			fixture, err := parseTree(dir)
			if err != nil {
				t.Fatal(err)
			}
			fixture.compileRuntime = func() ([]byte, error) {
				return os.ReadFile(filepath.Join(dir, "gcflags-m.txt"))
			}
			fixture.deleted = mod.deleted
			want, err := os.ReadFile(filepath.Join(dir, "want.txt"))
			if err != nil {
				t.Fatal(err)
			}
			if got := strings.Join(g.violations(fixture), "\n") + "\n"; got != string(want) {
				t.Errorf("guard %q on %s reports\n%swant\n%s", g.rule, dir, got, want)
			}
		})
	}
}

// TestGofmt holds every Go file of the module and of bench/ to gofmt's
// layout: go/format.Source must return each unchanged. Like the go tool it
// skips testdata/ and names starting with "." or "_". It only reads.
func TestGofmt(t *testing.T) {
	n := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		n++
		if got, err := format.Source(src); err != nil {
			t.Errorf("%s: %v", path, err)
		} else if !bytes.Equal(got, src) {
			t.Errorf("%s is not gofmt-formatted: run gofmt -w %s", path, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no Go file found, so nothing was checked")
	}
}

// The documents liveDocRefs reads, besides every package doc comment.
var docFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

var (
	// A DESIGN.md heading: "## 5. Key …" or "### 5.7 Networked …".
	designHeading = regexp.MustCompile(`(?m)^#{2,} (\d+(?:\.\d+)*)\.? `)
	// A section reference that can only mean DESIGN.md: a numbered
	// subsection anywhere, or any section after "DESIGN". A bare "§7" is
	// the paper's.
	sectionRef = regexp.MustCompile(`DESIGN(?:\.md)?(?:'s)? §(\d+(?:\.\d+)?)|§(\d+\.\d+)`)
	backticked = regexp.MustCompile("`([^`\n]+)`")
	testName   = regexp.MustCompile(`^((?:Test|Benchmark|Fuzz|Example)\w*)(\*?)(?:/\S*)?$`)
	repoPath   = regexp.MustCompile(`^(?:internal|cmd|examples|perf|testdata|bench)/\S*$`)
)

// liveDocRefs reports each reference in README, DESIGN and EXPERIMENTS
// and in the package doc comments that points nowhere: a § that is no
// DESIGN.md heading, a backticked Test, Benchmark, Fuzz or Example name
// (a trailing * makes it a prefix) that is no function of a _test.go file
// of the tree or of bench/, and a backticked path under internal/, cmd/,
// examples/, perf/, testdata/ or bench/ that does not exist, unless a
// guard keeps it deleted. Section references are also checked in every
// other Go comment.
func liveDocRefs(tr *srcTree) []string {
	design, err := os.ReadFile(filepath.Join(tr.root, "DESIGN.md"))
	if err != nil {
		return []string{err.Error()}
	}
	sections := map[string]bool{}
	for _, m := range designHeading.FindAllStringSubmatch(string(design), -1) {
		sections[m[1]] = true
	}
	tests, err := testFuncs(tr)
	if err != nil {
		return []string{err.Error()}
	}
	var bad []string
	checkSections := func(where string, line int, text string) {
		for _, m := range sectionRef.FindAllStringSubmatch(text, -1) {
			if sec := m[1] + m[2]; !sections[sec] {
				bad = append(bad, fmt.Sprintf("%s:%d: §%s is no DESIGN.md heading", where, line, sec))
			}
		}
	}
	checkNames := func(where string, line int, text string) {
		for _, m := range backticked.FindAllStringSubmatch(text, -1) {
			ref := m[1]
			if t := testName.FindStringSubmatch(ref); t != nil {
				if !slices.ContainsFunc(tests, func(fn string) bool {
					return fn == t[1] || t[2] == "*" && strings.HasPrefix(fn, t[1])
				}) {
					bad = append(bad, fmt.Sprintf("%s:%d: no test function %s", where, line, t[1]+t[2]))
				}
			} else if repoPath.MatchString(ref) && !tr.exists(ref) {
				bad = append(bad, fmt.Sprintf("%s:%d: %s does not exist", where, line, ref))
			}
		}
	}
	for _, name := range docFiles {
		text, err := os.ReadFile(filepath.Join(tr.root, name))
		if err != nil {
			bad = append(bad, err.Error())
			continue
		}
		for i, line := range strings.Split(string(text), "\n") {
			checkSections(name, i+1, line)
			checkNames(name, i+1, line)
		}
	}
	for _, f := range tr.files {
		for _, cg := range f.syntax.Comments {
			for _, c := range cg.List {
				line := tr.fset.Position(c.Slash).Line
				for i, text := range strings.Split(c.Text, "\n") {
					checkSections(f.path, line+i, text)
					if cg == f.syntax.Doc && !f.test {
						checkNames(f.path, line+i, text)
					}
				}
			}
		}
	}
	return bad
}

// exists reports whether the slash path ref, relative to the tree's root,
// exists or lies in a path a guard keeps deleted.
func (tr *srcTree) exists(ref string) bool {
	ref = path.Clean(ref)
	if slices.ContainsFunc(tr.deleted, func(d string) bool { return ref == d || strings.HasPrefix(ref, d+"/") }) {
		return true
	}
	_, err := os.Stat(filepath.Join(tr.root, filepath.FromSlash(ref)))
	return err == nil
}

// testFuncs returns the names of the top-level functions of the tree's
// _test.go files and of those directly in its bench/ directory.
func testFuncs(tr *srcTree) ([]string, error) {
	var names []string
	add := func(f *ast.File) {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
				names = append(names, fn.Name.Name)
			}
		}
	}
	for _, f := range tr.files {
		if f.test {
			add(f.syntax)
		}
	}
	bench, err := filepath.Glob(filepath.Join(tr.root, "bench", "*_test.go"))
	if err != nil {
		return nil, err
	}
	for _, p := range bench {
		f, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		add(f)
	}
	return names, nil
}

// goList runs go list with args in dir and returns its output lines.
func goList(t *testing.T, dir string, args ...string) []string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list %s in %s: %v\n%s", strings.Join(args, " "), dir, err, stderr.String())
	}
	return strings.Split(strings.TrimSpace(string(out)), "\n")
}

// unlinked returns, in the order of all, the packages not in linked.
func unlinked(all []string, linked map[string]bool) []string {
	var out []string
	for _, p := range all {
		if !linked[p] {
			out = append(out, p)
		}
	}
	return out
}

// TestEveryPackageIsLinked holds the rule that non-test code is code a
// binary links: every package of the module with non-test Go files is a
// dependency of a cmd/ or examples/ program or of the benchmark (bench/,
// a module of its own). Code only one package's tests need belongs in
// that package's _test.go files.
func TestEveryPackageIsLinked(t *testing.T) {
	var all []string
	linked := map[string]bool{}
	mains := 0
	for _, line := range goList(t, ".", "-f", "{{.ImportPath}}\t{{.Name}}\t{{len .GoFiles}}\t{{join .Deps \" \"}}", "./...") {
		f := strings.Split(line, "\t")
		if len(f) != 4 {
			t.Fatalf("go list line %q has %d fields, want 4", line, len(f))
		}
		path, name, files, deps := f[0], f[1], f[2], f[3]
		if files != "0" {
			all = append(all, path)
		}
		if name == "main" && (strings.HasPrefix(path, "softbarrier/cmd/") || strings.HasPrefix(path, "softbarrier/examples/")) {
			mains++
			linked[path] = true
			for _, d := range strings.Fields(deps) {
				linked[d] = true
			}
		}
	}
	for _, d := range goList(t, "bench", "-deps", ".") {
		linked[d] = true
	}
	if mains == 0 || !linked["softbarrier"] {
		t.Fatalf("found %d programs and the root package linked = %v: the go list output is not what this test expects", mains, linked["softbarrier"])
	}
	if bad := unlinked(all, linked); len(bad) > 0 {
		t.Errorf("no command, example or bench links %s: move test-only code into _test.go files",
			strings.Join(bad, ", "))
	}
}

// TestUnlinkedNamesEachPackage checks the rule itself on a synthetic
// module: an unlinked package is reported by name, a linked one is not.
func TestUnlinkedNamesEachPackage(t *testing.T) {
	all := []string{
		"softbarrier",
		"softbarrier/internal/fixture",
		"softbarrier/internal/wire",
	}
	linked := map[string]bool{"softbarrier": true, "softbarrier/internal/wire": true}
	if got, want := unlinked(all, linked), []string{"softbarrier/internal/fixture"}; !slices.Equal(got, want) {
		t.Errorf("unlinked = %q, want %q", got, want)
	}
	linked["softbarrier/internal/fixture"] = true
	if got := unlinked(all, linked); len(got) != 0 {
		t.Errorf("unlinked = %q with every package linked, want none", got)
	}
}
