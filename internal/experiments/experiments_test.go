package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
)

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
// <!-- /gen -->, against testdata/experiments.json, the output of
// cmd/experiments -json at the default options: a gen:ID block is
// Table.Markdown() of table ID, and a gen:claims-ID block is claimsBlock
// of section ID. Every section with claims must have its block, and no
// ✓ may stand outside a block, where nothing checks it. It reads the
// golden file and simulates nothing.
func TestExperimentsMarkdownMatchesGolden(t *testing.T) {
	g := readGolden(t)
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	const open, end = "\n<!-- gen:", "<!-- /gen -->\n"
	rest, blocks, outside := string(doc), map[string]bool{}, ""
	for {
		i := strings.Index(rest, open)
		if i < 0 {
			break
		}
		outside += rest[:i]
		rest = rest[i+len(open):]
		id, body, ok := strings.Cut(rest, " -->\n")
		if !ok {
			t.Fatal("EXPERIMENTS.md ends inside a gen marker")
		}
		body, rest, ok = strings.Cut(body, end)
		if !ok {
			t.Fatalf("gen:%s has no %s", id, end)
		}
		blocks[id] = true
		var want string
		if section, isClaims := strings.CutPrefix(id, "claims-"); isClaims {
			want = claimsBlock(g, section)
		} else if tab, ok := g[id]; ok {
			want = tab.Markdown()
		} else {
			t.Errorf("gen:%s: no such table in testdata/experiments.json", id)
			continue
		}
		if body != want {
			t.Errorf("EXPERIMENTS.md gen:%s is stale: %s; the block should read:\n%s", id, firstDiff(body, want), want)
		}
	}
	if len(blocks) == 0 {
		t.Error("EXPERIMENTS.md has no generated blocks")
	}
	for _, c := range append(claims[:len(claims):len(claims)], knownDeviations...) {
		if !blocks["claims-"+c.section] {
			t.Errorf("EXPERIMENTS.md has no gen:claims-%s block for %q", c.section, c.quote)
		}
	}
	if strings.Contains(outside+rest, "✓") {
		t.Error("EXPERIMENTS.md has a ✓ outside its generated blocks; state the claim in claims_test.go")
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
