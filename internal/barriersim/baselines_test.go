package barriersim

import (
	"math"
	"testing"

	"softbarrier/internal/loadmodel"
	"softbarrier/internal/stats"
	"softbarrier/internal/topology"
)

func TestDisseminationSimultaneous(t *testing.T) {
	// σ = 0: exactly ⌈log₂ p⌉ rounds of t_c.
	for _, c := range []struct{ p, rounds int }{{2, 1}, {4, 2}, {8, 3}, {64, 6}, {100, 7}} {
		got := DisseminationDelay(make([]float64, c.p), tc)
		want := float64(c.rounds) * tc
		if !almostEq(got, want) {
			t.Errorf("p=%d: delay %v, want %v", c.p, got, want)
		}
	}
}

func TestDisseminationLateProcessorStillPaysLogP(t *testing.T) {
	// The structural weakness vs combining trees: even one very late
	// processor pays the full ⌈log₂ p⌉ rounds after arriving.
	p := 64
	arr := make([]float64, p)
	arr[10] = 1000 * tc
	got := DisseminationDelay(arr, tc)
	if !almostEq(got, 6*tc) {
		t.Errorf("late-processor delay %v, want %v", got, 6*tc)
	}
}

func TestTournamentSimultaneous(t *testing.T) {
	// σ = 0: champion waits ⌈log₂ p⌉ rounds, plus one release update.
	for _, c := range []struct{ p, rounds int }{{2, 1}, {8, 3}, {64, 6}} {
		got := TournamentDelay(make([]float64, c.p), tc)
		want := float64(c.rounds+1) * tc
		if !almostEq(got, want) {
			t.Errorf("p=%d: delay %v, want %v", c.p, got, want)
		}
	}
}

func TestTournamentLateChampionShortPath(t *testing.T) {
	// If the champion (processor 0) is last, every loser has already
	// signalled: it pays its rounds back-to-back plus the release.
	p := 64
	arr := make([]float64, p)
	arr[0] = 1000 * tc
	got := TournamentDelay(arr, tc)
	if !almostEq(got, 7*tc) {
		t.Errorf("late-champion delay %v, want %v", got, 7*tc)
	}
}

func TestCentralDelayMatchesFlatTreeSimulation(t *testing.T) {
	// The closed-form central barrier must agree with the event-driven
	// simulator's flat combining tree on identical arrivals.
	p := 64
	r := stats.NewRNG(3)
	s := New(topology.NewClassic(p, p), Config{})
	for k := 0; k < 20; k++ {
		arr := loadmodel.SampleArrivals(p, stats.Normal{Sigma: 5 * tc}, r)
		want := s.Episode(arr).SyncDelay
		got := CentralDelay(arr, tc)
		if math.Abs(got-want) > tc*1e-6 {
			t.Fatalf("episode %d: closed form %v vs simulated %v", k, got, want)
		}
	}
}

func TestCentralDelaySimultaneous(t *testing.T) {
	if got := CentralDelay(make([]float64, 64), tc); !almostEq(got, 64*tc) {
		t.Errorf("central delay %v, want %v", got, 64*tc)
	}
}

func TestBaselinesSingleProcessor(t *testing.T) {
	for _, kind := range []BaselineKind{Dissemination, Tournament} {
		if got := BaselineDelay(kind, []float64{5}, tc); got != 0 {
			t.Errorf("%v: single-processor delay %v, want 0", kind, got)
		}
	}
	if got := CentralDelay([]float64{5}, tc); !almostEq(got, tc) {
		t.Errorf("central single-processor delay %v, want tc", got)
	}
}

func TestBaselinePanics(t *testing.T) {
	for _, f := range []func(){
		func() { DisseminationDelay(nil, tc) },
		func() { TournamentDelay(nil, tc) },
		func() { CentralDelay(nil, tc) },
		func() { BaselineDelay(BaselineKind(99), []float64{0}, tc) },
		func() { RunBaselineIID(Central, 4, tc, stats.Degenerate{}, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestBaselineKindString(t *testing.T) {
	if Dissemination.String() != "dissemination" || Tournament.String() != "tournament" || Central.String() != "central" {
		t.Fatal("kind strings wrong")
	}
	if BaselineKind(99).String() == "" {
		t.Fatal("unknown kind should still print")
	}
}

func TestRunBaselineIID(t *testing.T) {
	rr := RunBaselineIID(Dissemination, 64, 0, stats.Normal{Sigma: 5 * tc}, 30, 7)
	if rr.Episodes != 30 || len(rr.SyncDelays) != 30 {
		t.Fatalf("bad run shape: %+v", rr)
	}
	// Dissemination delay is at least rounds·t_c always.
	if rr.MeanSync < 6*tc-tc*1e-9 {
		t.Errorf("mean %v below structural floor", rr.MeanSync)
	}
	// Determinism.
	rr2 := RunBaselineIID(Dissemination, 64, 0, stats.Normal{Sigma: 5 * tc}, 30, 7)
	if rr.MeanSync != rr2.MeanSync {
		t.Error("baseline run not deterministic")
	}
}

func TestCombiningTreeBeatsDisseminationUnderImbalance(t *testing.T) {
	// The thesis of the extension experiment: with wide arrivals, a wide
	// combining tree (low depth) beats the rigid log₂ p structure.
	p := 256
	dist := stats.Normal{Sigma: 50 * tc}
	diss := RunBaselineIID(Dissemination, p, tc, dist, 40, 11)
	sweep := DegreeSweep(nil, p, topology.NewClassic, Config{}, dist, 40, 11)
	best := Best(sweep)
	if best.MeanSync >= diss.MeanSync {
		t.Errorf("optimal tree %v not better than dissemination %v at σ=50t_c", best.MeanSync, diss.MeanSync)
	}
}
