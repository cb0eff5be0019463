package trace

import (
	"strings"
	"testing"

	"softbarrier/internal/barriersim"
	"softbarrier/internal/model"
	"softbarrier/internal/topology"
)

func runTraced(t *testing.T, dynamic bool, arrivals []float64) (*barriersim.Sim, *Recorder) {
	t.Helper()
	tree := topology.NewMCS(len(arrivals), 4)
	s := barriersim.New(tree, barriersim.Config{Dynamic: dynamic})
	rec := &Recorder{}
	s.SetTracer(rec)
	s.Episode(arrivals)
	return s, rec
}

func TestRecorderCapturesEpisode(t *testing.T) {
	p := 16
	_, rec := runTraced(t, false, make([]float64, p))
	if len(rec.Episodes) != 1 {
		t.Fatalf("episodes = %d", len(rec.Episodes))
	}
	e := rec.Last()
	if len(e.Arrivals) != p {
		t.Errorf("arrivals = %d, want %d", len(e.Arrivals), p)
	}
	// Every counter receives exactly fan-in updates: total = P + C − 1.
	tree := topology.NewMCS(p, 4)
	if want := p + tree.NumCounters() - 1; len(e.Updates) != want {
		t.Errorf("updates = %d, want %d", len(e.Updates), want)
	}
	if e.Releaser < 0 || e.Release <= 0 {
		t.Errorf("release not recorded: %+v", e.Releaser)
	}
}

func TestUpdatesNeverOverlapPerCounter(t *testing.T) {
	arr := make([]float64, 32)
	_, rec := runTraced(t, false, arr)
	e := rec.Last()
	byCounter := map[int][]UpdateEvent{}
	for _, u := range e.Updates {
		byCounter[u.Counter] = append(byCounter[u.Counter], u)
	}
	for c, us := range byCounter {
		for i := range us {
			for j := i + 1; j < len(us); j++ {
				a, b := us[i], us[j]
				if a.Start < b.End && b.Start < a.End {
					t.Fatalf("counter %d: overlapping updates %+v and %+v", c, a, b)
				}
			}
		}
	}
}

func TestExactlyOneLastPerCounter(t *testing.T) {
	_, rec := runTraced(t, false, make([]float64, 20))
	lastCount := map[int]int{}
	for _, u := range rec.Last().Updates {
		if u.Last {
			lastCount[u.Counter]++
		}
	}
	for c, n := range lastCount {
		if n != 1 {
			t.Fatalf("counter %d has %d final updates", c, n)
		}
	}
}

func TestPathOfReleaserEndsAtRoot(t *testing.T) {
	s, rec := runTraced(t, false, make([]float64, 16))
	e := rec.Last()
	path := e.PathOf(e.Releaser)
	if len(path) == 0 || path[len(path)-1] != s.Tree().Root {
		t.Fatalf("releaser path %v does not end at root %d", path, s.Tree().Root)
	}
}

func TestSwapRecorded(t *testing.T) {
	p := 16
	arr := make([]float64, p)
	arr[2] = 100 * model.DefaultTc // proc 2 very late → victor
	_, rec := runTraced(t, true, arr)
	e := rec.Last()
	if len(e.Swaps) == 0 {
		t.Fatal("no swap recorded")
	}
	for _, s := range e.Swaps {
		if s.Victor != 2 {
			t.Errorf("unexpected victor %d", s.Victor)
		}
	}
}

func TestTimelineRendering(t *testing.T) {
	_, rec := runTraced(t, false, make([]float64, 16))
	out := rec.Last().Timeline(60)
	if !strings.Contains(out, "#") || !strings.Contains(out, "c0") {
		t.Fatalf("timeline missing lanes:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Header + one lane per active counter + rule.
	tree := topology.NewMCS(16, 4)
	if want := tree.NumCounters() + 2; len(lines) != want {
		t.Fatalf("timeline has %d lines, want %d:\n%s", len(lines), want, out)
	}
	if !strings.Contains(lines[len(lines)-1], "|") {
		t.Error("release marker missing from rule")
	}
}

func TestTimelineWidthClamp(t *testing.T) {
	_, rec := runTraced(t, false, make([]float64, 8))
	out := rec.Last().Timeline(1) // clamped to 10
	if out == "" {
		t.Fatal("empty timeline")
	}
}

func TestSummaryRendering(t *testing.T) {
	p := 16
	arr := make([]float64, p)
	arr[5] = 50 * model.DefaultTc
	_, rec := runTraced(t, true, arr)
	sum := rec.Last().Summary()
	for _, want := range []string{"latest arrivals", "p5", "releaser", "swaps"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
}

func TestRecorderKeepBound(t *testing.T) {
	tree := topology.NewClassic(8, 4)
	s := barriersim.New(tree, barriersim.Config{})
	rec := &Recorder{Keep: 3}
	s.SetTracer(rec)
	for k := 0; k < 10; k++ {
		s.Episode(make([]float64, 8))
	}
	if len(rec.Episodes) != 3 {
		t.Fatalf("kept %d episodes, want 3", len(rec.Episodes))
	}
}

func TestRecorderToleratesMidRunAttachment(t *testing.T) {
	rec := &Recorder{}
	rec.Arrival(0, 1) // no BeginEpisode yet
	if len(rec.Episodes) != 1 {
		t.Fatal("implicit episode not created")
	}
	if rec.Last() == nil {
		t.Fatal("Last returned nil")
	}
	empty := &Recorder{}
	if empty.Last() != nil {
		t.Fatal("empty recorder should return nil")
	}
}

func TestSpan(t *testing.T) {
	e := &Episode{
		Arrivals: map[int]float64{0: 2, 1: 5},
		Updates:  []UpdateEvent{{Start: 5, End: 9}},
		Release:  8,
	}
	lo, hi := e.Span()
	if lo != 2 || hi != 9 {
		t.Fatalf("span [%v, %v], want [2, 9]", lo, hi)
	}
}
