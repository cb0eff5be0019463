package main

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"softbarrier"
	"softbarrier/internal/netbarrier"
)

func TestPercentile(t *testing.T) {
	xs := []uint32{50, 10, 40, 20, 30}
	for _, c := range []struct{ q, want float64 }{{0, 10}, {0.25, 20}, {0.5, 30}, {0.99, 50}, {1, 50}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 50 {
		t.Error("percentile reordered its argument")
	}
	if got := percentile([]int64(nil), 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
}

// The spread must be the one the acceptance procedure computes: Python's
// statistics.quantiles(xs, n=4) gives [2.75, 5.5, 8.25] for 1..10.
func TestQuartileSpread(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{3}); got != 0 {
		t.Errorf("quartileSpread of one value = %v, want 0", got)
	}
}

func TestSelfTime(t *testing.T) {
	if got := selfTime(100, 30, 45, 5); got != 20 {
		t.Errorf("selfTime = %d, want 20", got)
	}
	tr := newTracer("w", 2)
	for ep := int64(0); ep < 2; ep++ {
		tr.begin(40 * ep)
		tr.add(spanArrive, 40*ep, 10)
		tr.add(spanAwait, 40*ep+10, 25)
	}
	tr.end(85)
	sum, episodes := tr.totals()
	if episodes != 2 || sum[spanEpisode] != 85 || sum[spanArrive] != 20 || sum[spanAwait] != 50 {
		t.Errorf("totals = %v over %d episodes; an episode's span must run to the next one's start, the last to the round's end", sum, episodes)
	}
	if tr.spans[0].id != tr.spans[2].id || tr.spans[2].id == tr.spans[3].id {
		t.Error("child spans must share their episode's id, and episodes must differ")
	}
	var nilTracer *tracer
	nilTracer.begin(0)
	nilTracer.add(spanArrive, 0, 1)
	nilTracer.end(1) // the untraced run: must not panic
}

func TestOrderSchedule(t *testing.T) {
	due, who := orderSchedule([][]float64{{300e-6, -20e-6, 100e-6, 100e-6}})
	wantDue, wantWho := []int64{0, 100000, 100000, 300000}, []int{1, 2, 3, 0}
	for j := range wantDue {
		if due[0][j] != wantDue[j] || who[0][j] != wantWho[j] {
			t.Fatalf("orderSchedule = %v by %v, want %v by %v (ascending, negatives clamped, ties by id)", due[0], who[0], wantDue, wantWho)
		}
	}
}

// allReduce runs the ledger's contributions through a real tree barrier.
func allReduce(t *testing.T, l *ledger) []byte {
	t.Helper()
	b := softbarrier.NewCombiningTree(len(l.in), 4, softbarrier.WithCollective(softbarrier.OpSumUint64()))
	for id, in := range l.in {
		if err := b.ArriveReduce(id, in); err != nil {
			t.Fatal(err)
		}
	}
	out := make([]byte, 8)
	if err := b.AwaitResult(0, out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestLedger(t *testing.T) {
	l := newLedger(7, cohort)
	l.fill(3)
	if got := allReduce(t, l); !l.ok(got) {
		t.Fatalf("the barrier's sum %x is not the ledger's %x", got, l.want)
	}
	// Sums are big-endian; the contributions are large enough that the
	// other byte order gives another number.
	var sum uint64
	for _, in := range l.in {
		sum += binary.BigEndian.Uint64(in)
	}
	le := binary.LittleEndian.AppendUint64(nil, sum)
	if l.ok(le) {
		t.Error("a little-endian sum passed the check")
	}
	// One corrupted contribution must fail the check.
	l.in[5][7] ^= 1
	if got := allReduce(t, l); l.ok(got) {
		t.Error("a corrupted contribution passed the check")
	}
	// Another episode or another seed draws other contributions.
	a, b := newLedger(7, 4), newLedger(8, 4)
	a.fill(0)
	b.fill(0)
	if a.want == b.want {
		t.Error("seeds 7 and 8 gave the same sum")
	}
	b.seed = 7
	b.fill(1)
	if a.want == b.want {
		t.Error("episodes 0 and 1 gave the same sum")
	}
}

func TestCheckRelease(t *testing.T) {
	l := newLedger(1, 8)
	l.fill(9)
	good := netbarrier.Release{Episode: 9, P: 8, Result: l.want[:]}
	if err := checkRelease(good, 9, 8, l); err != nil {
		t.Errorf("good release refused: %v", err)
	}
	for name, rel := range map[string]netbarrier.Release{
		"wrong episode": {Episode: 10, P: 8, Result: l.want[:]},
		"wrong cohort":  {Episode: 9, P: 7, Result: l.want[:]},
		"wrong sum":     {Episode: 9, P: 8, Result: make([]byte, 8)},
		"no result":     {Episode: 9, P: 8},
	} {
		if checkRelease(rel, 9, 8, l) == nil {
			t.Errorf("%s passed the check", name)
		}
	}
}

func fixture(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestProcParsers(t *testing.T) {
	if kb, err := parseKeyed(fixture(t, "proc_status"), "VmHWM"); err != nil || kb != 9724 {
		t.Errorf("VmHWM = %d, %v; want 9724", kb, err)
	}
	io := fixture(t, "proc_io")
	if r, err := parseKeyed(io, "syscr"); err != nil || r != 64000 {
		t.Errorf("syscr = %d, %v; want 64000", r, err)
	}
	if w, err := parseKeyed(io, "syscw"); err != nil || w != 32000 {
		t.Errorf("syscw = %d, %v; want 32000", w, err)
	}
	if _, err := parseKeyed(io, "VmHWM"); err == nil {
		t.Error("a missing key parsed")
	}
	if ns, err := parseSchedstat(fixture(t, "proc_schedstat")); err != nil || ns != 5123456789 {
		t.Errorf("schedstat = %d, %v; want 5123456789", ns, err)
	}
	if _, err := parseSchedstat([]byte("12 x")); err == nil {
		t.Error("a malformed schedstat parsed")
	}
	// And against the live files of this process.
	if mib, err := peakRSSMiB(0); err != nil || mib <= 0 {
		t.Errorf("own peak RSS = %v, %v", mib, err)
	}
	if ns, err := cpuNs(os.Getpid()); err != nil || ns <= 0 {
		t.Errorf("own CPU by schedstat = %v, %v", ns, err)
	}
	if _, _, err := ioCalls(os.Getpid()); err != nil {
		t.Errorf("own io counters: %v", err)
	}
}

// BENCHMARK.json repeats the tables in metrics.go and workloads.go for
// the acceptance driver; the two must say the same.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the source %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the source %q (or their why lines differ)", i, spec.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the source %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the source %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// TestSmoke runs every workload end to end at toy size, untraced and
// traced, and wants every metric present and every check passed.
func TestSmoke(t *testing.T) {
	e := &env{seed: 1, procs: &children{}}
	defer e.procs.killAll()
	for _, w := range workloads {
		small := *w
		small.steps, small.cycles = 64, 2
		for _, traced := range []bool{false, true} {
			rounds, file := 1, ""
			if traced {
				rounds, file = 2, filepath.Join(t.TempDir(), "spans.jsonl")
			}
			out, err := runWorkload(&small, e, rounds, traced, file)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if out.err != nil || out.failed != 0 || out.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d episodes failed: %v", w.name, traced, out.failed, out.attempted, out.err)
			}
			rep := makeReport(&small, e.seed, traced, out)
			defs := endToEnd
			if traced {
				defs = perLayer
				if st, err := os.Stat(file); err != nil || st.Size() == 0 {
					t.Errorf("%s: no span file: %v", w.name, err)
				}
			}
			if len(rep.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics reported, want %d", w.name, traced, len(rep.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rep.Metrics[d.Name]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s missing or not a number (%v)", w.name, traced, d.Name, m.Value)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want above 0", w.name, d.Name, m.Value)
				}
			}
		}
	}
}
