package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
)

// quick returns low-effort options for shape tests.
func quick() Options { return Options{Episodes: 15, Warmup: 5, Seed: 7} }

func TestTableRendering(t *testing.T) {
	tab := &Table{ID: "X", Title: "demo", Header: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.AddNote("n=%d", 3)
	s := tab.String()
	for _, want := range []string{"X", "demo", "a", "bb", "1", "2", "note: n=3"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
	md := tab.Markdown()
	if !strings.Contains(md, "| a | bb |") || !strings.Contains(md, "| 1 | 2 |") {
		t.Errorf("Markdown malformed:\n%s", md)
	}
}

func TestRegistry(t *testing.T) {
	ids := IDs()
	if len(ids) != 20 {
		t.Fatalf("registry has %d experiments, want 20", len(ids))
	}
	for _, id := range ids {
		if _, err := Lookup(id); err != nil {
			t.Errorf("Lookup(%q): %v", id, err)
		}
	}
	if _, err := Lookup("FIG99"); err == nil {
		t.Error("unknown id should error")
	}
}

func TestEq1ShapesExact(t *testing.T) {
	tab := Eq1OptimalDegree(quick())
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Simulated delay must equal the closed form in every row.
	for _, row := range tab.Rows {
		if row[2] != row[3] {
			t.Errorf("degree %s: sim %s != closed form %s", row[0], row[2], row[3])
		}
	}
}

func TestFig2Shape(t *testing.T) {
	tab := Fig2(quick())
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Degree 32 must have no model estimate (not a full tree for 4096).
	for _, row := range tab.Rows {
		if row[0] == "32" && row[5] != "-" {
			t.Errorf("degree 32 has a model estimate: %v", row)
		}
		if row[0] != "32" && row[5] == "-" {
			t.Errorf("degree %s missing model estimate", row[0])
		}
	}
}

func TestFig3DataShape(t *testing.T) {
	o := quick()
	cells := Fig3Data(o)
	if len(cells) != len(ProcGrid)*len(SigmaGrid) {
		t.Fatalf("cells = %d", len(cells))
	}
	for _, c := range cells {
		if c.SigmaTc == 0 && c.OptDegree != 4 {
			t.Errorf("p=%d σ=0: optimal degree %d, want 4", c.P, c.OptDegree)
		}
		if c.Speedup < 0.99 {
			t.Errorf("p=%d σ=%g: speedup %v below 1", c.P, c.SigmaTc, c.Speedup)
		}
	}
	// Within each system size the optimal degree must not shrink with σ.
	for _, p := range ProcGrid {
		prev := 0
		for _, c := range cells {
			if c.P != p {
				continue
			}
			if c.OptDegree < prev {
				t.Errorf("p=%d: degree %d after %d as σ grows", p, c.OptDegree, prev)
			}
			prev = c.OptDegree
		}
	}
}

func TestFig5SlackControlsPersistence(t *testing.T) {
	tab := Fig5(Options{Episodes: 25, Warmup: 5, Seed: 7})
	// Row 0 is slack 0: lag-1 correlation ≈ 0. Last row is slack 16ms:
	// lag-1 correlation near 1.
	var zero, big float64
	if _, err := fmtSscan(tab.Rows[0][1], &zero); err != nil {
		t.Fatal(err)
	}
	if _, err := fmtSscan(tab.Rows[len(tab.Rows)-1][1], &big); err != nil {
		t.Fatal(err)
	}
	if zero > 0.2 || zero < -0.2 {
		t.Errorf("slack-0 lag-1 correlation %v, want ≈0", zero)
	}
	if big < 0.7 {
		t.Errorf("slack-16ms lag-1 correlation %v, want high", big)
	}
}

func TestFig8DataShape(t *testing.T) {
	// Small p keeps the test fast; the shape claims are size-independent.
	rows := Fig8Data(Options{Episodes: 30, Warmup: 10, Seed: 7}, []int{4}, 256)
	if len(rows) != len(fig8Slacks) {
		t.Fatalf("rows = %d", len(rows))
	}
	first, last := rows[0], rows[len(rows)-1]
	if !(last.LastDepth < first.LastDepth) {
		t.Errorf("last-proc depth did not fall with slack: %v → %v", first.LastDepth, last.LastDepth)
	}
	if !(last.Speedup > first.Speedup) {
		t.Errorf("speedup did not grow with slack: %v → %v", first.Speedup, last.Speedup)
	}
	if first.Speedup < 0.7 || first.Speedup > 1.3 {
		t.Errorf("slack-0 speedup %v, want ≈1", first.Speedup)
	}
	for _, r := range rows {
		if r.CommOverhead < 1 || r.CommOverhead > 1+1.0/float64(r.Degree+1)+1e-9 {
			t.Errorf("comm overhead %v outside [1, 1+1/(d+1)]", r.CommOverhead)
		}
	}
}

func TestFig13DataShape(t *testing.T) {
	rows := Fig13Data(Options{Episodes: 25, Warmup: 10, Seed: 7}, []int{16})
	if len(rows) != len(fig13Slacks) {
		t.Fatalf("rows = %d", len(rows))
	}
	first, last := rows[0], rows[len(rows)-1]
	if !(last.LastDepth < first.LastDepth) {
		t.Errorf("depth did not fall with slack: %v → %v", first.LastDepth, last.LastDepth)
	}
	if last.Speedup < 1 {
		t.Errorf("large-slack speedup %v, want > 1", last.Speedup)
	}
}

func TestAllRunnersProduceTables(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	o := quickOptions
	var got strings.Builder
	for _, e := range registry {
		tab := e.Runner(o)
		if tab.ID == "" || len(tab.Header) == 0 || len(tab.Rows) == 0 {
			t.Errorf("experiment %q produced an empty table", tab.ID)
		}
		for _, row := range tab.Rows {
			if len(row) != len(tab.Header) {
				t.Errorf("%s: row width %d != header width %d", tab.ID, len(row), len(tab.Header))
			}
		}
		s, err := tab.JSON()
		if err != nil {
			t.Fatal(err)
		}
		got.WriteString(s + "\n")
	}
	// The simulator's output at these options is pinned byte for byte.
	// Other targets may fuse multiply-adds, which moves the last digit.
	if runtime.GOARCH != "amd64" {
		return
	}
	want, err := os.ReadFile("testdata/quick.json")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("tables differ from testdata/quick.json:\n%s", firstDiff(got.String(), string(want)))
	}
}

// firstDiff describes the first line at which got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}

// TestExperimentsMarkdownMatchesGolden checks every generated block of
// EXPERIMENTS.md, the lines between a line <!-- gen:ID --> and a line
// <!-- /gen -->, against Table.Markdown() of that ID in
// testdata/experiments.json, the output of cmd/experiments -json at the
// default options. It reads the golden file and simulates nothing.
func TestExperimentsMarkdownMatchesGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/experiments.json")
	if err != nil {
		t.Fatal(err)
	}
	tables := map[string]*Table{}
	dec := json.NewDecoder(bytes.NewReader(raw))
	for dec.More() {
		tab := &Table{}
		if err := dec.Decode(tab); err != nil {
			t.Fatal(err)
		}
		tables[tab.ID] = tab
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	const open, end = "\n<!-- gen:", "<!-- /gen -->\n"
	rest, blocks := string(doc), 0
	for {
		i := strings.Index(rest, open)
		if i < 0 {
			break
		}
		rest = rest[i+len(open):]
		id, body, ok := strings.Cut(rest, " -->\n")
		if !ok {
			t.Fatal("EXPERIMENTS.md ends inside a gen marker")
		}
		body, rest, ok = strings.Cut(body, end)
		if !ok {
			t.Fatalf("gen:%s has no %s", id, end)
		}
		blocks++
		tab, ok := tables[id]
		if !ok {
			t.Errorf("gen:%s: no such table in testdata/experiments.json", id)
			continue
		}
		if want := tab.Markdown(); body != want {
			t.Errorf("EXPERIMENTS.md gen:%s is stale: %s", id, firstDiff(body, want))
		}
	}
	if blocks == 0 {
		t.Error("EXPERIMENTS.md has no generated blocks")
	}
}

func TestTableJSONRoundTrip(t *testing.T) {
	tab := &Table{ID: "X", Title: "demo", Header: []string{"a"}, Notes: []string{"n"}}
	tab.AddRow("1")
	s, err := tab.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Table
	if err := json.Unmarshal([]byte(s), &back); err != nil {
		t.Fatal(err)
	}
	if back.ID != "X" || back.Title != "demo" || len(back.Rows) != 1 || back.Rows[0][0] != "1" || back.Notes[0] != "n" {
		t.Fatalf("round trip lost data: %+v", back)
	}
}
