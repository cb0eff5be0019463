package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

func TestLeafFromRoot(t *testing.T) {
	for _, tc := range []struct {
		args     []string
		wantLeaf bool
		wantErr  string // substring; "" means accepted
	}{
		{args: nil},
		{args: []string{"-listen", ":0", "-keepalive", "1s"}},
		{args: []string{"-root", "r:1"}, wantLeaf: true},
		{args: []string{"-root", "r:1", "-shards", "4", "-shard-id", "3"}, wantLeaf: true},
		{args: []string{"-shards", "4"}, wantErr: "-shards only applies to a leaf"},
		{args: []string{"-shard-id", "1"}, wantErr: "-shard-id only applies to a leaf"},
		{args: []string{"-shards", "2", "-shard-id", "0"}, wantErr: "-shard-id, -shards only applies"},
		{args: []string{"-root", "r:1", "-shard-id", "1"}, wantErr: "-shard-id 1 outside [0, 1)"},
		{args: []string{"-root", "r:1", "-shards", "4", "-shard-id", "-1"}, wantErr: "outside [0, 4)"},
		{args: []string{"-root", "r:1", "-shards", "0"}, wantErr: "-shards must be ≥ 1"},
	} {
		fs := flag.NewFlagSet("barrierd", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		d := addDeployFlags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%q: parse: %v", tc.args, err)
		}
		leaf, err := d.leaf(fs)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%q refused: %v", tc.args, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%q: err = %v, want one containing %q", tc.args, err, tc.wantErr)
		case err == nil && leaf != tc.wantLeaf:
			t.Errorf("%q: leaf = %v, want %v", tc.args, leaf, tc.wantLeaf)
		}
	}
}
