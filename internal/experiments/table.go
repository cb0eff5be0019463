// Package experiments reproduces every table and figure of the paper's
// evaluation. Each runner returns a Table whose rows mirror the paper's
// presentation; cmd/experiments renders them all and EXPERIMENTS.md records
// the paper-vs-measured comparison.
//
// Runners take an Options value so benchmarks can trade replication count
// against runtime; DefaultOptions matches the fidelity used for the
// recorded results.
package experiments

import (
	"encoding/json"
	"fmt"
	"strings"

	"softbarrier/internal/sweep"
)

// Options tunes the experiment harness.
type Options struct {
	// Episodes is the number of measured barrier episodes per
	// configuration.
	Episodes int
	// Warmup is the number of discarded leading episodes for runs with
	// cross-episode state (dynamic placement, slack feedback).
	Warmup int
	// Seed is the base PRNG seed; every configuration derives from it
	// deterministically.
	Seed uint64
	// Engine executes each experiment's parameter grid; nil runs the grid
	// points sequentially. Tables are bit-identical for every engine
	// configuration (see internal/sweep).
	Engine *sweep.Engine
}

// DefaultOptions is the fidelity used for the recorded EXPERIMENTS.md
// results.
func DefaultOptions() Options {
	return Options{Episodes: 100, Warmup: 20, Seed: 1995}
}

// Table is one reproduced figure or table. Its JSON form (field names in
// lower case) is stable and intended for regression diffing via
// cmd/experiments -json.
type Table struct {
	// ID is the experiment identifier (e.g. "FIG3").
	ID string `json:"id"`
	// Title restates what the paper artifact shows.
	Title string `json:"title"`
	// Header names the columns.
	Header []string `json:"header"`
	// Rows holds the formatted cells.
	Rows [][]string `json:"rows"`
	// Notes carries shape observations and caveats.
	Notes []string `json:"notes,omitempty"`
}

// JSON renders the table as indented JSON.
func (t *Table) JSON() (string, error) {
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// AddRow appends one formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends a formatted note.
func (t *Table) AddNote(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the table as a GitHub-flavored markdown table.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Header)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", n)
	}
	return b.String()
}

// ms formats a duration in seconds as milliseconds with three decimals.
func ms(sec float64) string { return fmt.Sprintf("%.3f", sec*1e3) }

// us formats a duration in seconds as microseconds with one decimal.
func us(sec float64) string { return fmt.Sprintf("%.1f", sec*1e6) }
