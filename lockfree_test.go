package softbarrier

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// lockFreeKinds builds every constructor over the one lock-free ascent for
// twelve participants, at degree 2 so the trees are deep and placement
// swaps are frequent.
var lockFreeKinds = []struct {
	name string
	mk   func(opts ...Option) fuzzyCollective
}{
	{"tree", func(o ...Option) fuzzyCollective { return NewCombiningTree(12, 2, o...) }},
	{"mcs", func(o ...Option) fuzzyCollective { return NewMCSTree(12, 2, o...) }},
	{"dynamic", func(o ...Option) fuzzyCollective { return NewDynamic(12, 2, o...) }},
	{"dynamic-ring", func(o ...Option) fuzzyCollective { return NewDynamicRing([]int{5, 4, 3}, 2, o...) }},
	{"reconfig", func(o ...Option) fuzzyCollective {
		return NewReconfigurable(12, ReconfigConfig{ReplanEvery: 5}, o...)
	}},
}

// TestLockFreeAscentStress drives a goroutine per member through the
// lock-free ascent (run it under -race): plain, carrying sum-u64 — the
// greedy fold, each input cell written before its add and folded by the
// counter's completer — and carrying sum-f64 — the id-order fold of the
// deposit cells at the root. No participant may leave an
// episode before all have entered it, every AllReduce result must equal
// the sequential fold bit for bit, and a dynamic barrier must end on a
// consistent placement.
func TestLockFreeAscentStress(t *testing.T) {
	const p, episodes = 12, 150
	u64 := func(id, e int) []byte {
		return binary.BigEndian.AppendUint64(nil, uint64(id+1)*0x9e3779b97f4a7c15+uint64(e))
	}
	f64 := func(id, e int) []byte {
		return binary.BigEndian.AppendUint64(nil, math.Float64bits(float64(e)+1/float64(id+1)))
	}
	sum, fsum := OpSumUint64(), OpSumFloat64()
	for _, procs := range []int{2, 4} {
		for _, k := range lockFreeKinds {
			for _, oc := range []struct {
				name    string
				op      *Op // nil: plain Wait
				contrib func(id, e int) []byte
			}{
				{"plain", nil, nil},
				{sum.Name, &sum, u64},
				{fsum.Name, &fsum, f64},
			} {
				t.Run(fmt.Sprintf("procs=%d/%s/%s", procs, k.name, oc.name), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					var opts []Option
					if oc.op != nil {
						opts = append(opts, WithCollective(*oc.op))
					}
					b := k.mk(opts...)
					var arrived atomic.Int64
					var wg sync.WaitGroup
					bad := make(chan string, p)
					wg.Add(p)
					for id := 0; id < p; id++ {
						go func(id int) {
							defer wg.Done()
							var out []byte
							cs := make([][]byte, p)
							for e := 0; e < episodes; e++ {
								// A deterministic stagger moves who is last
								// around the tree without sleeping.
								for n := (id*7 + e*13) % 5; n > 0; n-- {
									runtime.Gosched()
								}
								arrived.Add(1)
								if oc.op == nil {
									b.Wait(id)
								} else {
									for j := range cs {
										cs[j] = oc.contrib(j, e)
									}
									out = append(out[:0], cs[id]...)
									if err := b.ArriveReduce(id, out); err != nil {
										bad <- err.Error()
										return
									}
									if err := b.AwaitResult(id, out); err != nil {
										bad <- err.Error()
										return
									}
									if want := sequentialFold(*oc.op, cs); !bytes.Equal(out, want) {
										bad <- fmt.Sprintf("episode %d id %d: reduced %x, want %x", e, id, out, want)
										return
									}
								}
								if arrived.Load() < int64((e+1)*p) {
									bad <- fmt.Sprintf("episode %d id %d: released early", e, id)
									return
								}
							}
						}(id)
					}
					wg.Wait()
					select {
					case msg := <-bad:
						t.Fatal(msg)
					default:
					}
					if d, ok := b.(*DynamicBarrier); ok {
						if err := validateDynamicPlacement(d); err != "" {
							t.Fatal(err)
						}
						if oc.op == nil && d.Swaps() == 0 {
							t.Error("no placement swap in the whole run")
						}
					}
				})
			}
		}
	}
}

// TestLockFreeMixedEpisodeCompletes arrives half of a greedy-collective
// barrier's members with Arrive and half with ArriveReduce. The calls
// disagree, so the episode's result is unspecified, but it must complete —
// a plain arrival puts the identity where a reducing one puts its
// contribution — and must leave nothing behind: the next, well-formed
// episode reduces correctly.
func TestLockFreeMixedEpisodeCompletes(t *testing.T) {
	const p = 8
	op := OpSumUint64()
	in, out := make([]byte, 8), make([]byte, 8)
	binary.BigEndian.PutUint64(in, 5)
	for _, k := range treeKinds {
		t.Run(k.name, func(t *testing.T) {
			released := 0
			b := k.mk(p, WithCollective(op), WithObserver(observerFunc(func(EpisodeStats) { released++ })))
			for _, plainFirst := range []bool{true, false} {
				before := released
				for id := 0; id < p; id++ {
					if (id < p/2) == plainFirst {
						b.Arrive(id)
					} else if err := b.ArriveReduce(id, in); err != nil {
						t.Fatal(err)
					}
				}
				if released != before+1 {
					t.Fatalf("mixed episode did not complete: %d releases", released-before)
				}
				for id := 0; id < p; id++ {
					b.Await(id)
				}
				for id := 0; id < p; id++ {
					if err := b.ArriveReduce(id, in); err != nil {
						t.Fatal(err)
					}
				}
				for id := 0; id < p; id++ {
					if err := b.AwaitResult(id, out); err != nil {
						t.Fatal(err)
					}
					if got := binary.BigEndian.Uint64(out); got != 5*p {
						t.Fatalf("episode after a mixed one reduced to %d, want %d", got, 5*p)
					}
				}
			}
		})
	}
}
