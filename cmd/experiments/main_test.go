package main

import (
	"bytes"
	"errors"
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestRunMatchesGolden: EQ1 at the test-fidelity settings prints the first
// table of internal/experiments' golden, byte for byte.
func TestRunMatchesGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-run", "EQ1", "-episodes", "6", "-warmup", "2", "-seed", "7", "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	// Other targets may fuse multiply-adds, which moves the last digit.
	if runtime.GOARCH != "amd64" {
		return
	}
	golden, err := os.ReadFile("../../internal/experiments/testdata/quick.json")
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 || !bytes.HasPrefix(golden, out.Bytes()) {
		t.Fatalf("EQ1 is not a prefix of testdata/quick.json:\n%s", out.String())
	}
}

func TestCommandLineErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-run", "NOPE"},
		{"-episodes", "0"},
	} {
		if err := run(args, &strings.Builder{}); !errors.As(err, new(usageError)) {
			t.Errorf("experiments %s: err = %v, want a usage error", strings.Join(args, " "), err)
		}
	}
}
