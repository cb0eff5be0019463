package barriersim

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"softbarrier/internal/loadmodel"
	"softbarrier/internal/stats"
)

func TestTraceReplayAndWrap(t *testing.T) {
	tr, err := NewTrace([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if tr.P() != 2 || tr.Iterations() != 2 {
		t.Fatalf("shape %d/%d", tr.P(), tr.Iterations())
	}
	dst := make([]float64, 2)
	tr.Times(0, nil, dst)
	if dst[0] != 1 || dst[1] != 2 {
		t.Fatalf("row 0 = %v", dst)
	}
	tr.Times(3, nil, dst) // wraps to row 1
	if dst[0] != 3 || dst[1] != 4 {
		t.Fatalf("row 3 (wrap) = %v", dst)
	}
	if tr.String() == "" {
		t.Fatal("empty description")
	}
}

func TestNewTraceValidation(t *testing.T) {
	if _, err := NewTrace(nil); err == nil {
		t.Error("empty trace accepted")
	}
	if _, err := NewTrace([][]float64{{}}); err == nil {
		t.Error("empty rows accepted")
	}
	if _, err := NewTrace([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged trace accepted")
	}
}

// TestNewTraceRejectsNonFinite: a recorded time that is NaN or infinite
// cannot be scheduled, so the trace is refused up front, naming where the
// bad entry sits.
func TestNewTraceRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := NewTrace([][]float64{{1, 2}, {3, bad}})
		if err == nil {
			t.Errorf("trace holding %g accepted", bad)
		} else if !strings.Contains(err.Error(), "row 1 column 1") {
			t.Errorf("error %q does not name row 1 column 1", err)
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	orig := &Trace{Rows: loadmodel.Schedule(loadmodel.IID{N: 5, Dist: stats.Normal{Mu: 1e-3, Sigma: 1e-4}}, 7, 3)}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.P() != orig.P() || back.Iterations() != orig.Iterations() {
		t.Fatalf("shape changed: %d/%d", back.P(), back.Iterations())
	}
	for k := range orig.Rows {
		for i := range orig.Rows[k] {
			if orig.Rows[k][i] != back.Rows[k][i] {
				t.Fatalf("value changed at [%d][%d]", k, i)
			}
		}
	}
}

func TestParseTraceCommentsAndErrors(t *testing.T) {
	tr, err := ParseTrace(strings.NewReader("# header\n\n1, 2\n3,4\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Iterations() != 2 || tr.P() != 2 {
		t.Fatalf("shape %d/%d", tr.Iterations(), tr.P())
	}
	if _, err := ParseTrace(strings.NewReader("1,x\n")); err == nil {
		t.Error("bad number accepted")
	}
	if _, err := ParseTrace(strings.NewReader("# only comments\n")); err == nil {
		t.Error("empty trace accepted")
	}
	if _, err := ParseTrace(strings.NewReader("1,2\n3\n")); err == nil {
		t.Error("ragged trace accepted")
	}
}

func TestTraceDrivesIterator(t *testing.T) {
	tr := &Trace{Rows: loadmodel.Schedule(loadmodel.IID{N: 8, Dist: stats.Normal{Mu: 1, Sigma: 0.1}}, 10, 11)}
	it := NewIterator(tr, 0, 13)
	for k := 0; k < 20; k++ { // wraps past the recording
		arr := it.Next()
		it.Complete(stats.Max(arr))
	}
	if it.Iteration() != 20 {
		t.Fatalf("iterations %d", it.Iteration())
	}
}
