package softbarrier

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fuzzyCollective is the arrive/await surface the four tree kinds share.
type fuzzyCollective interface {
	PhasedBarrier
	Abortable
	Reset()
	Close()
	ArriveReduce(id int, in []byte) error
	AwaitResult(id int, out []byte) error
	Reduced(episode uint64) []byte
}

// observerFunc adapts a function to Observer.
type observerFunc func(EpisodeStats)

func (f observerFunc) Episode(st EpisodeStats) { f(st) }

// treeKinds builds each tree barrier kind the one core serves.
var treeKinds = []struct {
	name string
	mk   func(p int, opts ...Option) fuzzyCollective
}{
	{"tree", func(p int, o ...Option) fuzzyCollective { return NewCombiningTree(p, 4, o...) }},
	{"mcs", func(p int, o ...Option) fuzzyCollective { return NewMCSTree(p, 4, o...) }},
	{"dynamic", func(p int, o ...Option) fuzzyCollective { return NewDynamic(p, 4, o...) }},
	{"reconfig", func(p int, o ...Option) fuzzyCollective {
		return NewReconfigurable(p, ReconfigConfig{ReplanEvery: 10}, o...)
	}},
}

// TestTreeEpisodeZeroAllocs gates the steady-state episode of every tree
// kind at zero allocations, plain and carrying a payload: one goroutine
// drives all P arrivals and then all P awaits, so the count is the
// barrier's own and not the scheduler's.
func TestTreeEpisodeZeroAllocs(t *testing.T) {
	const p = 32
	in, out := make([]byte, 8), make([]byte, 8)
	binary.BigEndian.PutUint64(in, 3)
	for _, k := range treeKinds {
		plain := k.mk(p)
		coll := k.mk(p, WithCollective(OpSumUint64()))
		for _, c := range []struct {
			name    string
			episode func()
		}{
			{"plain", func() {
				for id := 0; id < p; id++ {
					plain.Arrive(id)
				}
				for id := 0; id < p; id++ {
					plain.Await(id)
				}
			}},
			{"sum-u64", func() {
				for id := 0; id < p; id++ {
					if err := coll.ArriveReduce(id, in); err != nil {
						t.Fatal(err)
					}
				}
				for id := 0; id < p; id++ {
					if err := coll.AwaitResult(id, out); err != nil {
						t.Fatal(err)
					}
				}
			}},
		} {
			// Warm up past the reconfigurable barrier's first replans and
			// the dynamic barrier's migration.
			for i := 0; i < 40; i++ {
				c.episode()
			}
			if n := testing.AllocsPerRun(50, c.episode); n != 0 {
				t.Errorf("%s/%s: %v allocs per episode, want 0", k.name, c.name, n)
			}
		}
		if got := binary.BigEndian.Uint64(out); got != 3*p {
			t.Errorf("%s: AllReduce delivered %d, want %d", k.name, got, 3*p)
		}
	}
}

// TestTreeConstructorAllocs pins what building a tree barrier allocates —
// the setup cost a run that builds barriers per round pays. The limits are
// the measured counts, lowered whenever a change lowers them and never
// raised: an unwatched barrier allocates no watchdog counters.
func TestTreeConstructorAllocs(t *testing.T) {
	const p = 32
	limits := map[string][2]float64{ // plain, WithCollective
		"tree":     {8, 11},
		"mcs":      {8, 11},
		"dynamic":  {8, 11},
		"reconfig": {10, 13},
	}
	withOp := []Option{WithCollective(OpSumUint64())}
	for _, k := range treeKinds {
		plain := testing.AllocsPerRun(20, func() { k.mk(p) })
		coll := testing.AllocsPerRun(20, func() { k.mk(p, withOp...) })
		t.Logf("%s: %v allocs, %v with a collective", k.name, plain, coll)
		if lim := limits[k.name]; plain > lim[0] || coll > lim[1] {
			t.Errorf("%s: constructor allocates %v / %v, want at most %v / %v", k.name, plain, coll, lim[0], lim[1])
		}
	}
}

// partCounts returns how many of b's counters hold a part-filled count.
func partCounts(b fuzzyCollective) int {
	n := 0
	st := coreOf(b).state.Load()
	for i := range st.counters {
		if st.counters[i].count.Load() != 0 {
			n++
		}
	}
	return n
}

// TestCollectiveAfterPoisonReset poisons an episode mid-ascent — five of
// eight arrived, so one leaf has completed into a part-filled root and
// the other leaf is part-filled itself, with some input cells written —
// drains, resets, and then checks a hundred episodes: no release before
// the last arrival, every result the sequential fold. Reset clears the
// counts and leaves the cells, which every input writes again before it
// is counted; it runs plain, on the greedy fold (commutative op) and on
// the cell fold (non-commutative op), on every tree kind.
func TestCollectiveAfterPoisonReset(t *testing.T) {
	const p, stranded, after = 8, 5, 100
	cause := errors.New("stranded episode")
	u64 := func(id, e int) []byte {
		return binary.BigEndian.AppendUint64(nil, uint64(1000*e+id+1))
	}
	sum, mat2 := OpSumUint64(), opMat2()
	for _, oc := range []struct {
		name    string
		op      *Op // nil: plain Arrive/Await
		contrib func(id, e int) []byte
	}{
		{"plain", nil, nil},
		{sum.Name, &sum, u64},
		{mat2.Name, &mat2, mat2Contribution},
	} {
		for _, k := range treeKinds {
			t.Run(oc.name+"/"+k.name, func(t *testing.T) {
				released := 0
				opts := []Option{WithObserver(observerFunc(func(EpisodeStats) { released++ }))}
				var out []byte
				if oc.op != nil {
					opts = append(opts, WithCollective(*oc.op))
					out = make([]byte, oc.op.Width)
				}
				b := k.mk(p, opts...)
				arrive := func(id, e int) []byte {
					t.Helper()
					if oc.op == nil {
						b.Arrive(id)
						return nil
					}
					c := oc.contrib(id, e)
					if err := b.ArriveReduce(id, c); err != nil {
						t.Fatal(err)
					}
					return c
				}
				episode := func(e int) {
					t.Helper()
					cs := make([][]byte, p)
					before := released
					// Arrive high ids first so the fold order is not the
					// id order by accident.
					for id := p - 1; id >= 0; id-- {
						if released != before {
							t.Fatalf("episode %d released with %d of %d arrived", e, p-1-id, p)
						}
						cs[id] = arrive(id, e)
					}
					if released != before+1 {
						t.Fatalf("episode %d: %d releases after the last arrival, want 1", e, released-before)
					}
					for id := 0; id < p; id++ {
						if oc.op == nil {
							b.Await(id)
							continue
						}
						if err := b.AwaitResult(id, out); err != nil {
							t.Fatal(err)
						}
						if want := sequentialFold(*oc.op, cs); !bytes.Equal(out, want) {
							t.Fatalf("episode %d id %d: got %x want %x", e, id, out, want)
						}
					}
				}
				episode(0)
				episode(1)
				for id := 0; id < stranded; id++ {
					arrive(id, 2)
				}
				if partCounts(b) == 0 {
					t.Fatal("no counter is part-filled: the episode was not stranded mid-ascent")
				}
				b.Poison(cause)
				for id := 0; id < stranded; id++ {
					b.Await(id)
					if err := b.Err(); !errors.Is(err, cause) {
						t.Fatalf("drain id %d: got %v, want the poison cause", id, err)
					}
				}
				b.Reset()
				if n := partCounts(b); n != 0 {
					t.Fatalf("%d counters still part-filled after Reset", n)
				}
				for e := 3; e < 3+after; e++ {
					episode(e)
				}
			})
		}
	}
}

// TestArriveHoldsUntilPreviousRelease plays a coordinator that arrives on
// behalf of remote members and never Awaits (internal/netbarrier): it
// learns of an episode's release from the Observer, which runs before the
// gate opens, so a member's next arrival can reach the tree while the
// gate still shows the old generation. That arrival must wait for the
// gate; stamped with the old generation it would deposit into the wrong
// parity and drop out of the next episode's fold.
func TestArriveHoldsUntilPreviousRelease(t *testing.T) {
	const p = 2
	op := opMat2() // cell fold: the deposit's parity decides what is folded
	for _, k := range treeKinds {
		t.Run(k.name, func(t *testing.T) {
			var b fuzzyCollective
			early := make(chan struct{}) // closed once the early arrival returned
			episodes := 0
			obs := observerFunc(func(EpisodeStats) {
				if episodes++; episodes != 1 {
					return
				}
				// Episode 0 is released as far as the coordinator knows;
				// member 0 arrives for episode 1 with the gate still shut.
				go func() {
					defer close(early)
					if err := b.ArriveReduce(0, mat2Contribution(0, 1)); err != nil {
						t.Error(err)
					}
				}()
				select {
				case <-early: // not held: the stale generation is stamped by now
				case <-time.After(20 * time.Millisecond):
				}
			})
			b = k.mk(p, WithCollective(op), WithObserver(obs))
			for id := 0; id < p; id++ {
				if err := b.ArriveReduce(id, mat2Contribution(id, 0)); err != nil {
					t.Fatal(err)
				}
			}
			<-early
			if err := b.ArriveReduce(1, mat2Contribution(1, 1)); err != nil {
				t.Fatal(err)
			}
			want := sequentialFold(op, [][]byte{mat2Contribution(0, 1), mat2Contribution(1, 1)})
			if got := b.Reduced(1); !bytes.Equal(got, want) {
				t.Fatalf("episode 1 folded %x, want %x", got, want)
			}
		})
	}
}

// senseRun drives one tree barrier for TestCountersReverseSense, either
// single-handed (every Arrive, then every Await, from the test goroutine)
// or with a goroutine per member.
type senseRun struct {
	t          *testing.T
	b          fuzzyCollective
	concurrent bool
}

// episode runs one whole episode of the current membership and checks it
// released exactly once, and single-handed not before the last arrival.
// With last ≥ 0 and goroutines, that member arrives after all the others.
func (s *senseRun) episode(last int) {
	s.t.Helper()
	core := coreOf(s.b)
	p, seq := core.Participants(), core.gate.Seq()
	if !s.concurrent {
		for id := 0; id < p; id++ {
			if got := core.gate.Seq(); got != seq {
				s.t.Fatalf("generation %d released with %d of %d arrived", seq, id, p)
			}
			s.b.Arrive(id)
		}
		for id := 0; id < p; id++ {
			s.b.Await(id)
		}
	} else {
		before := core.Arrivals()
		var wg sync.WaitGroup
		wg.Add(p)
		for id := 0; id < p; id++ {
			go func(id int) {
				defer wg.Done()
				for other := 0; id == last && other < p; other++ {
					for other != id && (*core.arrived.Load())[other].Load() == before[other] {
						runtime.Gosched()
					}
				}
				s.b.Wait(id)
			}(id)
		}
		wg.Wait()
	}
	if got := core.gate.Seq(); got != seq+1 {
		s.t.Fatalf("generation %d: gate at %d after all %d arrived, want %d", seq, got, p, seq+1)
	}
	s.atRest("after an episode")
}

// strand arrives members 0 … n−1 in the open generation and returns once
// all of them have.
func (s *senseRun) strand(n int) {
	var wg sync.WaitGroup
	for id := 0; id < n; id++ {
		if !s.concurrent {
			s.b.Arrive(id)
			continue
		}
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			s.b.Arrive(id)
		}(id)
	}
	wg.Wait()
}

// atRest checks the quiescent invariant: every counter stands at the end
// the next generation counts away from, 0 if that one is even and the
// fan-in if it is odd.
func (s *senseRun) atRest(when string) {
	s.t.Helper()
	core := coreOf(s.b)
	st, gen := core.state.Load(), core.gate.Seq()
	for i := range st.counters {
		tc := &st.counters[i]
		if got, want := tc.count.Load(), startCount(tc.fanIn, gen); got != want {
			s.t.Fatalf("%s, before generation %d: counter %d (fan-in %d) at %d, want %d", when, gen, i, tc.fanIn, got, want)
		}
	}
}

// TestCountersReverseSense pins the count that is never reset: a tree
// counter climbs to its fan-in through an even generation and falls back
// to zero through the next, so everything that builds or restores
// counters has to do it by the parity of the generation that runs next —
// a fresh barrier, Reset after a Poison, and on the reconfigurable barrier
// every way a new epoch is installed. Each case lands on an odd
// generation, where a counter put back to zero could never complete (the
// test would hang on its Await) or would complete a visit early (caught
// as an early release); each runs single-handed and with a goroutine per
// member (CI runs it under -race).
func TestCountersReverseSense(t *testing.T) {
	const p, stranded = 8, 5
	cause := errors.New("stranded on an odd generation")
	var ticks atomic.Int64
	// Successive readings are wideGap apart whoever takes them: the spread
	// of drivenReconfigurable, without its single driver.
	clock := withClock(func() int64 { return ticks.Add(int64(wideGap)) })
	mk, ok := PlacementByName("reactive")
	if !ok {
		t.Fatal("no reactive policy")
	}
	cases := []struct {
		name string
		mk   func(p int, o ...Option) fuzzyCollective // nil: every tree kind
		run  func(s *senseRun)
	}{
		{"odd-then-one-more", nil, func(s *senseRun) {
			for e := 0; e < 4; e++ {
				s.episode(-1)
			}
		}},
		{"poison-reset", nil, func(s *senseRun) {
			s.episode(-1)
			s.strand(stranded) // generation 1: counting down
			s.b.Poison(cause)
			for id := 0; id < stranded; id++ {
				s.b.Await(id)
			}
			if err := s.b.Err(); !errors.Is(err, cause) {
				s.t.Fatalf("drained with %v, want the poison cause", err)
			}
			s.b.Reset()
			s.atRest("after Reset")
			s.episode(-1) // the aborted generation, again
			s.episode(-1)
		}},
		{"resize", func(p int, o ...Option) fuzzyCollective {
			return NewReconfigurable(p, ReconfigConfig{ReplanEvery: 10}, o...)
		}, func(s *senseRun) {
			s.episode(-1)
			if err := s.b.(*ReconfigurableBarrier).Resize(p + 4); err != nil {
				s.t.Fatal(err)
			}
			s.atRest("after Resize")
			s.episode(-1)
			s.episode(-1)
		}},
		{"queued-grow", func(p int, o ...Option) fuzzyCollective {
			return NewReconfigurable(p, ReconfigConfig{ReplanEvery: 10}, o...)
		}, func(s *senseRun) {
			b := s.b.(*ReconfigurableBarrier)
			if _, err := b.Grow(2); err != nil {
				s.t.Fatal(err)
			}
			s.episode(-1) // generation 0 admits them into an epoch that starts at 1
			if b.Participants() != p+2 || b.Epoch() != 1 {
				s.t.Fatalf("after the boundary: p %d epoch %d, want %d and 1", b.Participants(), b.Epoch(), p+2)
			}
			s.episode(-1)
			s.episode(-1)
		}},
		{"degree-rebuild", func(p int, o ...Option) fuzzyCollective {
			return NewReconfigurable(p, ReconfigConfig{ReplanEvery: 1, Tc: drivenTc}, append(o, clock)...)
		}, func(s *senseRun) {
			b := s.b.(*ReconfigurableBarrier)
			s.episode(-1)
			if b.Degree() != 8 || b.Epoch() != 1 {
				s.t.Fatalf("generation 0 did not rebuild: degree %d epoch %d, want 8 and 1", b.Degree(), b.Epoch())
			}
			s.episode(-1)
			s.episode(-1)
		}},
		{"placement-reorder", func(p int, o ...Option) fuzzyCollective {
			return NewReconfigurable(p, ReconfigConfig{ReplanEvery: 1, Tc: pinTc}, append(o, clock, WithPlacementPolicy(mk()))...)
		}, func(s *senseRun) {
			b := s.b.(*ReconfigurableBarrier)
			s.episode(p - 1) // the natural order has member 0 laggiest
			if st := b.ReconfigStats(); st.Placements != 1 || st.LastPlan.Epoch != 0 {
				s.t.Fatalf("generation 0 did not re-place: %+v", st)
			}
			s.episode(-1)
			s.episode(-1)
		}},
	}
	for _, concurrent := range []bool{false, true} {
		for _, c := range cases {
			kinds := treeKinds
			if c.mk != nil {
				kinds = []struct {
					name string
					mk   func(p int, opts ...Option) fuzzyCollective
				}{{"reconfig", c.mk}}
			}
			for _, k := range kinds {
				t.Run(fmt.Sprintf("concurrent=%t/%s/%s", concurrent, c.name, k.name), func(t *testing.T) {
					var opts []Option
					if concurrent {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
						// The last arriver waits for the others on the
						// counters only a watched barrier keeps.
						opts = []Option{WithWatchdog(time.Hour)}
					}
					b := k.mk(p, opts...)
					defer b.Close()
					c.run(&senseRun{t: t, b: b, concurrent: concurrent})
				})
			}
		}
	}
}
