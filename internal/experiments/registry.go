package experiments

import (
	"fmt"
	"sort"
)

// Runner produces one reproduced figure or table.
type Runner func(Options) *Table

// registry maps experiment IDs to runners, in presentation order.
var registry = []struct {
	ID     string
	Runner Runner
}{
	{"EQ1", Eq1OptimalDegree},
	{"FIG2", Fig2},
	{"FIG3", Fig3},
	{"FIG4", Fig4},
	{"FIG5", Fig5},
	{"FIG8", Fig8},
	{"FIG9", Fig9},
	{"FIG10", Fig10},
	{"FIG11", Fig11},
	{"FIG12", Fig12},
	{"FIG13", Fig13},
	{"EXT1", Ext1},
	{"EXT2", Ext2},
	{"EXT3", Ext3},
	{"EXT4", Ext4},
	{"EXT5", Ext5},
	{"EXT6", Ext6},
	{"EXT7", Ext7},
	{"EXT8", Ext8},
	{"EXT9", Ext9},
}

// IDs returns all experiment IDs in presentation order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.ID
	}
	return ids
}

// Lookup returns the runner for an experiment ID (case-sensitive).
func Lookup(id string) (Runner, error) {
	for _, e := range registry {
		if e.ID == id {
			return e.Runner, nil
		}
	}
	known := IDs()
	sort.Strings(known)
	return nil, fmt.Errorf("experiments: unknown id %q (known: %v)", id, known)
}
