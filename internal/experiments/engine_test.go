package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"softbarrier/internal/sweep"
)

// quickOptions are the options testdata/quick.json pins.
var quickOptions = Options{Episodes: 6, Warmup: 2, Seed: 7}

// engineIDs name representative experiments covering the distinct grid
// shapes: paired degree sweeps (FIG3), coupled static/dynamic pairs
// (FIG10), baseline comparisons (EXT1) and distribution grids (EXT4).
var engineIDs = []string{"FIG3", "FIG10", "EXT1", "EXT4"}

// tablesJSON renders the engineIDs experiments at the given options.
func tablesJSON(t *testing.T, o Options) string {
	t.Helper()
	out := ""
	for _, id := range engineIDs {
		run, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		s, err := run(o).JSON()
		if err != nil {
			t.Fatal(err)
		}
		out += s + "\n"
	}
	return out
}

// pinnedJSON returns the engineIDs tables of testdata/quick.json, byte
// for byte, as tablesJSON renders them.
func pinnedJSON(t *testing.T) string {
	t.Helper()
	raw, err := os.ReadFile("testdata/quick.json")
	if err != nil {
		t.Fatal(err)
	}
	pinned := map[string]string{}
	dec := json.NewDecoder(bytes.NewReader(raw))
	for dec.More() {
		var msg json.RawMessage
		if err := dec.Decode(&msg); err != nil {
			t.Fatal(err)
		}
		var tab struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(msg, &tab); err != nil {
			t.Fatal(err)
		}
		pinned[tab.ID] = string(msg)
	}
	out := ""
	for _, id := range engineIDs {
		s, ok := pinned[id]
		if !ok {
			t.Fatalf("testdata/quick.json has no table %s", id)
		}
		out += s + "\n"
	}
	return out
}

// TestEngineDeterminism is the acceptance criterion of the sweep engine at
// the experiment layer: with 4 and GOMAXPROCS workers the rendered tables
// are the bytes testdata/quick.json pins. A nil engine and Workers: 1 take
// one sequential path in sweep.Run, which TestAllRunnersProduceTables
// compares with the same file.
func TestEngineDeterminism(t *testing.T) {
	var want string
	if runtime.GOARCH == "amd64" {
		want = pinnedJSON(t)
	} else {
		// quick.json is pinned on amd64 only (other targets may fuse
		// multiply-adds), so elsewhere the sequential run is the reference.
		want = tablesJSON(t, quickOptions)
	}
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		o := quickOptions
		o.Engine = &sweep.Engine{Workers: workers}
		if got := tablesJSON(t, o); got != want {
			t.Errorf("workers=%d: tables differ from the reference: %s", workers, firstDiff(got, want))
		}
	}
}
