package barriersim

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"softbarrier/internal/stats"
)

// Trace replays recorded per-iteration execution times: row k holds the p
// work times of iteration k, and iterations past the recording wrap
// around. It stands in for the production traces a site would feed the
// simulator (we have none; synthetic workloads generate equivalent
// recordings — see DESIGN.md's substitution table).
type Trace struct {
	Rows [][]float64
}

// NewTrace validates and wraps recorded rows: at least one row, all rows
// the same positive width, all times finite.
func NewTrace(rows [][]float64) (*Trace, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("barriersim: trace has no iterations")
	}
	p := len(rows[0])
	if p == 0 {
		return nil, fmt.Errorf("barriersim: trace rows are empty")
	}
	for k, row := range rows {
		if len(row) != p {
			return nil, fmt.Errorf("barriersim: row %d has %d entries, want %d", k, len(row), p)
		}
	}
	return &Trace{Rows: rows}, nil
}

// P returns the processor count.
func (t *Trace) P() int { return len(t.Rows[0]) }

// Iterations returns the number of recorded iterations.
func (t *Trace) Iterations() int { return len(t.Rows) }

// Times replays iteration k (mod the recording length).
func (t *Trace) Times(k int, _ *stats.RNG, dst []float64) {
	copy(dst, t.Rows[k%len(t.Rows)])
}

func (t *Trace) String() string {
	return fmt.Sprintf("trace p=%d iterations=%d", t.P(), t.Iterations())
}

// ParseTrace reads a trace in the textual format written by WriteTrace:
// one iteration per line, comma-separated per-processor work times in
// seconds; blank lines and lines starting with '#' are ignored.
func ParseTrace(r io.Reader) (*Trace, error) {
	var rows [][]float64
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, ",")
		row := make([]float64, 0, len(fields))
		for _, f := range fields {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, fmt.Errorf("barriersim: trace line %d: %v", lineNo, err)
			}
			row = append(row, v)
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("barriersim: reading trace: %v", err)
	}
	return NewTrace(rows)
}

// WriteTrace writes the trace in the format ParseTrace reads. A write
// error sticks in the buffered writer and is returned by its Flush.
func WriteTrace(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# barrier workload trace: %d processors, %d iterations\n", t.P(), t.Iterations())
	for _, row := range t.Rows {
		for i, v := range row {
			if i > 0 {
				bw.WriteByte(',')
			}
			fmt.Fprintf(bw, "%g", v)
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}
