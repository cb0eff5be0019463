package softbarrier

import (
	"sync"
	"testing"
	"time"
)

func TestDisseminationRounds(t *testing.T) {
	cases := []struct{ p, rounds int }{{1, 0}, {2, 1}, {3, 2}, {8, 3}, {9, 4}, {64, 6}}
	for _, c := range cases {
		if got := NewDissemination(c.p).Rounds(); got != c.rounds {
			t.Errorf("p=%d: rounds %d, want %d", c.p, got, c.rounds)
		}
		if got := NewTournament(c.p).Rounds(); got != c.rounds {
			t.Errorf("tournament p=%d: rounds %d, want %d", c.p, got, c.rounds)
		}
	}
}

func TestDisseminationNonPowerOfTwo(t *testing.T) {
	// The wraparound partner arithmetic must be correct for p not a power
	// of two.
	for _, p := range []int{3, 5, 7, 13} {
		checkBarrier(t, NewDissemination(p), p, 40)
	}
}

func TestTournamentNonPowerOfTwo(t *testing.T) {
	// Byes (missing opponents) must not stall the champion.
	for _, p := range []int{3, 5, 7, 13} {
		checkBarrier(t, NewTournament(p), p, 40)
	}
}

func TestDisseminationManyEpisodesParityCycling(t *testing.T) {
	// The parity/sense scheme reuses flag slots every other episode; a
	// long run catches stale-flag bugs.
	checkBarrier(t, NewDissemination(8), 8, 400)
}

func TestTournamentChampionLast(t *testing.T) {
	// Participant 0 (the champion) arriving last must still release
	// everyone.
	const p = 8
	b := NewTournament(p)
	var wg sync.WaitGroup
	wg.Add(p)
	for id := 0; id < p; id++ {
		go func(id int) {
			defer wg.Done()
			for k := 0; k < 10; k++ {
				if id == 0 {
					time.Sleep(500 * time.Microsecond)
				}
				b.Wait(id)
			}
		}(id)
	}
	wg.Wait()
}

func TestMCSTreeJitterConformance(t *testing.T) {
	checkBarrierWithJitter(t, NewMCSTree(12, 4), 12, 80)
}

func TestBaselineConstructorPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"dissemination-0": func() { NewDissemination(0) },
		"tournament-0":    func() { NewTournament(0) },
	} {
		f := f
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			f()
		})
	}
}
