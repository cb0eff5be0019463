package softbarrier

import (
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// testkitPrefix is where harness that several packages' tests share
// lives: the one place a non-test package need not be linked.
const testkitPrefix = "softbarrier/internal/testkit/"

// unlinked returns, in the order of all, the packages that are neither in
// linked nor under internal/testkit/.
func unlinked(all []string, linked map[string]bool) []string {
	var out []string
	for _, p := range all {
		if !linked[p] && !strings.HasPrefix(p, testkitPrefix) {
			out = append(out, p)
		}
	}
	return out
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

// TestEveryPackageIsLinked holds the rule that non-test code is code a
// binary links: every package of the module with non-test Go files is a
// dependency of a cmd/ or examples/ program or of the benchmark (bench/,
// a module of its own), unless it is shared test harness under
// internal/testkit/. Code only one package's tests need belongs in that
// package's _test.go files.
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
		t.Errorf("no command, example or bench links %s: move test-only code into _test.go files, or under internal/testkit/ if several packages' tests share it",
			strings.Join(bad, ", "))
	}
}

// TestUnlinkedNamesEachPackage checks the rule itself on a synthetic
// module: an unlinked package is reported by name, a linked one and
// shared harness are not.
func TestUnlinkedNamesEachPackage(t *testing.T) {
	all := []string{
		"softbarrier",
		"softbarrier/internal/fixture",
		"softbarrier/internal/testkit/chaos",
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
