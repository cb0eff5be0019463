package softbarrier

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// opMat2 is 2×2 matrix multiplication over uint32 (wrapping): genuinely
// associative and non-commutative, so the deterministic id-order fold is
// observable — any reordering of operands changes the product.
func opMat2() Op {
	ident := make([]byte, 16)
	binary.BigEndian.PutUint32(ident[0:], 1)  // [[1 0]
	binary.BigEndian.PutUint32(ident[12:], 1) //  [0 1]]
	return Op{
		Name: "mat2-u32", Width: 16, Identity: ident,
		Fold: func(dst, src []byte) {
			var a, b [4]uint32
			for i := 0; i < 4; i++ {
				a[i] = binary.BigEndian.Uint32(dst[4*i:])
				b[i] = binary.BigEndian.Uint32(src[4*i:])
			}
			binary.BigEndian.PutUint32(dst[0:], a[0]*b[0]+a[1]*b[2])
			binary.BigEndian.PutUint32(dst[4:], a[0]*b[1]+a[1]*b[3])
			binary.BigEndian.PutUint32(dst[8:], a[2]*b[0]+a[3]*b[2])
			binary.BigEndian.PutUint32(dst[12:], a[2]*b[1]+a[3]*b[3])
		},
	}
}

// mat2Contribution derives a deterministic, order-sensitive contribution
// for one participant and episode.
func mat2Contribution(id int, episode int) []byte {
	c := make([]byte, 16)
	rng := rand.New(rand.NewSource(int64(id)*7919 + int64(episode)*104729 + 1))
	for i := 0; i < 4; i++ {
		binary.BigEndian.PutUint32(c[4*i:], rng.Uint32())
	}
	return c
}

// sequentialFold folds the contributions in ascending id order — the
// reference every collective must match bit for bit for non-commutative
// ops.
func sequentialFold(op Op, contribs [][]byte) []byte {
	out := make([]byte, op.Width)
	copy(out, contribs[0])
	for _, c := range contribs[1:] {
		op.Fold(out, c)
	}
	return out
}

// runAllReduceEpisodes drives E episodes of AllReduce on b with p
// participants, contributions scrambled in launch order and jittered in
// time, and checks every participant's result against want(e).
func runAllReduceEpisodes(t *testing.T, b Collective, p, episodes int, op Op,
	contrib func(id, e int) []byte, want func(e int) []byte) {
	t.Helper()
	var wg sync.WaitGroup
	results := make([][]byte, p)
	for id := 0; id < p; id++ {
		results[id] = make([]byte, op.Width)
	}
	rng := rand.New(rand.NewSource(42))
	for e := 0; e < episodes; e++ {
		order := rng.Perm(p)
		for _, id := range order {
			wg.Add(1)
			go func(id, e int, delay time.Duration) {
				defer wg.Done()
				time.Sleep(delay)
				if err := b.AllReduce(id, contrib(id, e), results[id]); err != nil {
					t.Errorf("episode %d participant %d: %v", e, id, err)
				}
			}(id, e, time.Duration(rng.Intn(200))*time.Microsecond)
		}
		wg.Wait()
		w := want(e)
		for id := 0; id < p; id++ {
			if !bytes.Equal(results[id], w) {
				t.Fatalf("episode %d participant %d: got %x, want %x", e, id, results[id], w)
			}
		}
	}
}

// TestCollectiveAllReduceDifferential checks every collective barrier's
// AllReduce against the sequential id-order fold, bit for bit, for a
// non-commutative op under scrambled arrival orders.
func TestCollectiveAllReduceDifferential(t *testing.T) {
	const p, episodes = 8, 40
	op := opMat2()
	contrib := func(id, e int) []byte { return mat2Contribution(id, e) }
	want := func(e int) []byte {
		cs := make([][]byte, p)
		for id := range cs {
			cs[id] = contrib(id, e)
		}
		return sequentialFold(op, cs)
	}
	barriers := map[string]Collective{
		"tree-d2":    NewCombiningTree(p, 2, WithCollective(op)),
		"tree-d4":    NewCombiningTree(p, 4, WithCollective(op)),
		"mcs-d3":     NewMCSTree(p, 3, WithCollective(op)),
		"dynamic-d2": NewDynamic(p, 2, WithCollective(op)),
		"reconfig":   NewReconfigurable(p, ReconfigConfig{ReplanEvery: 4}, WithCollective(op)),
	}
	for name, b := range barriers {
		b := b
		t.Run(name, func(t *testing.T) {
			runAllReduceEpisodes(t, b, p, episodes, op, contrib, want)
		})
	}
}

// TestCollectiveAllReduceCommutative exercises the greedy path: a
// commutative sum folded during the ascent.
func TestCollectiveAllReduceCommutative(t *testing.T) {
	const p, episodes = 7, 40
	op := OpSumUint64()
	contrib := func(id, e int) []byte {
		c := make([]byte, 8)
		binary.BigEndian.PutUint64(c, uint64(id+1)*uint64(e+1))
		return c
	}
	want := func(e int) []byte {
		var sum uint64
		for id := 0; id < p; id++ {
			sum += uint64(id+1) * uint64(e+1)
		}
		c := make([]byte, 8)
		binary.BigEndian.PutUint64(c, sum)
		return c
	}
	barriers := map[string]Collective{
		"tree-d3":    NewCombiningTree(p, 3, WithCollective(op)),
		"mcs-d2":     NewMCSTree(p, 2, WithCollective(op)),
		"dynamic-d3": NewDynamic(p, 3, WithCollective(op)),
		"reconfig":   NewReconfigurable(p, ReconfigConfig{}, WithCollective(op)),
	}
	for name, b := range barriers {
		b := b
		t.Run(name, func(t *testing.T) {
			runAllReduceEpisodes(t, b, p, episodes, op, contrib, want)
		})
	}
}

// TestCollectiveGreedyFoldIgnoresArrivalOrder: each node folds its inputs
// in input order, so on a tree whose placement never changes a commutative
// op gets the same bits whatever the arrival order — even an op that is
// not associative, float addition marked Commutative here, whose result
// moves with any change of parenthesization.
func TestCollectiveGreedyFoldIgnoresArrivalOrder(t *testing.T) {
	const p, orders = 13, 24
	op := OpSumFloat64()
	op.Commutative = true
	in := make([][]byte, p)
	for id := range in {
		v := math.Ldexp(1+float64(id)/7, 40*(id%3)-40)
		if id%2 == 1 {
			v = -v
		}
		in[id] = binary.BigEndian.AppendUint64(nil, math.Float64bits(v))
	}
	rng := rand.New(rand.NewSource(7))
	// The op really is not associative on these inputs: sequential folds
	// in different orders disagree.
	seen := map[string]bool{}
	for i := 0; i < orders; i++ {
		perm := make([][]byte, p)
		for k, id := range rng.Perm(p) {
			perm[k] = in[id]
		}
		seen[string(sequentialFold(op, perm))] = true
	}
	if len(seen) < 2 {
		t.Fatal("every order folded to the same bits: the test op is associative on its inputs")
	}
	for _, k := range []struct {
		name string
		b    fuzzyCollective
	}{
		{"tree", NewCombiningTree(p, 3, WithCollective(op))},
		{"mcs", NewMCSTree(p, 3, WithCollective(op))},
		{"reconfig", NewReconfigurable(p, ReconfigConfig{InitialDegree: 3, MinDegreeDelta: p}, WithCollective(op))},
	} {
		t.Run(k.name, func(t *testing.T) {
			var first []byte
			out := make([]byte, 8)
			for e := 0; e < orders; e++ {
				for _, id := range rng.Perm(p) {
					if err := k.b.ArriveReduce(id, in[id]); err != nil {
						t.Fatal(err)
					}
				}
				for id := 0; id < p; id++ {
					if err := k.b.AwaitResult(id, out); err != nil {
						t.Fatal(err)
					}
					if first == nil {
						first = bytes.Clone(out)
					} else if !bytes.Equal(out, first) {
						t.Fatalf("order %d id %d: reduced %x, the first order %x", e, id, out, first)
					}
				}
			}
		})
	}
}

// TestCollectiveReduceAndBroadcast checks root-rooted delivery: Reduce
// fills only the root's out, Broadcast fans the root's buf to everyone.
func TestCollectiveReduceAndBroadcast(t *testing.T) {
	const p, root = 6, 2
	op := opMat2()
	for _, tc := range []struct {
		name string
		b    Collective
	}{
		{"tree", NewCombiningTree(p, 2, WithCollective(op))},
		{"dynamic", NewDynamic(p, 2, WithCollective(op))},
		{"reconfig", NewReconfigurable(p, ReconfigConfig{}, WithCollective(op))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Reduce: only root receives the fold.
			contribs := make([][]byte, p)
			for id := range contribs {
				contribs[id] = mat2Contribution(id, 0)
			}
			wantFold := sequentialFold(op, contribs)
			outs := make([][]byte, p)
			var wg sync.WaitGroup
			for id := 0; id < p; id++ {
				outs[id] = bytes.Repeat([]byte{0xEE}, op.Width)
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					if err := tc.b.Reduce(id, root, contribs[id], outs[id]); err != nil {
						t.Errorf("reduce %d: %v", id, err)
					}
				}(id)
			}
			wg.Wait()
			if !bytes.Equal(outs[root], wantFold) {
				t.Fatalf("root result %x, want %x", outs[root], wantFold)
			}
			for id := 0; id < p; id++ {
				if id != root && !bytes.Equal(outs[id], bytes.Repeat([]byte{0xEE}, op.Width)) {
					t.Fatalf("non-root %d received a reduce result", id)
				}
			}

			// Broadcast: everyone converges on root's value.
			msg := mat2Contribution(99, 7)
			bufs := make([][]byte, p)
			for id := 0; id < p; id++ {
				bufs[id] = make([]byte, op.Width)
				if id == root {
					copy(bufs[id], msg)
				}
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					if err := tc.b.Broadcast(id, root, bufs[id]); err != nil {
						t.Errorf("broadcast %d: %v", id, err)
					}
				}(id)
			}
			wg.Wait()
			for id := 0; id < p; id++ {
				if !bytes.Equal(bufs[id], msg) {
					t.Fatalf("participant %d broadcast buf %x, want %x", id, bufs[id], msg)
				}
			}
		})
	}
}

// TestCollectiveGrowShrink runs AllReduce through elastic membership
// changes in lockstep — one episode per round — and checks every
// delivered result against the sequential fold over that episode's
// membership, including the round whose boundary shrinks contributors
// away (they contributed; they just receive no result locally).
func TestCollectiveGrowShrink(t *testing.T) {
	op := opMat2()
	b := NewReconfigurable(4, ReconfigConfig{}, WithCollective(op))

	round := 0
	runRound := func(p int, expectResult func(id int) bool) {
		t.Helper()
		contribs := make([][]byte, p)
		for id := range contribs {
			contribs[id] = mat2Contribution(id, round)
		}
		want := sequentialFold(op, contribs)
		sentinel := bytes.Repeat([]byte{0xAB}, op.Width)
		outs := make([][]byte, p)
		var wg sync.WaitGroup
		for id := 0; id < p; id++ {
			outs[id] = bytes.Clone(sentinel)
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				if err := b.AllReduce(id, contribs[id], outs[id]); err != nil {
					t.Errorf("round %d participant %d: %v", round, id, err)
				}
			}(id)
		}
		wg.Wait()
		for id := 0; id < p; id++ {
			if expectResult(id) {
				if !bytes.Equal(outs[id], want) {
					t.Fatalf("round %d participant %d: got %x, want %x", round, id, outs[id], want)
				}
			} else if !bytes.Equal(outs[id], sentinel) {
				t.Fatalf("round %d shrunk participant %d received a result", round, id)
			}
		}
		round++
	}
	all := func(int) bool { return true }

	runRound(4, all) // steady state
	if _, err := b.Grow(2); err != nil {
		t.Fatal(err)
	}
	runRound(4, all) // boundary episode: still 4 members, grow lands at its release
	if got := b.Participants(); got != 6 {
		t.Fatalf("after grow: %d participants, want 6", got)
	}
	runRound(6, all) // new members contribute from their admitting epoch
	if _, err := b.Shrink(3); err != nil {
		t.Fatal(err)
	}
	// Boundary episode: all 6 contribute, ids 3..5 are shrunk at the
	// release and receive no result.
	runRound(6, func(id int) bool { return id < 3 })
	if got := b.Participants(); got != 3 {
		t.Fatalf("after shrink: %d participants, want 3", got)
	}
	runRound(3, all)
	runRound(3, all)
}

// TestCollectiveMixedWithWait interleaves plain Wait episodes with
// AllReduce episodes on the same barrier: the zero-payload episodes must
// not disturb the payload ones.
func TestCollectiveMixedWithWait(t *testing.T) {
	const p = 5
	op := OpSumUint64()
	b := NewCombiningTree(p, 2, WithCollective(op))
	var wg sync.WaitGroup
	results := make([][]byte, p)
	for e := 0; e < 20; e++ {
		for id := 0; id < p; id++ {
			results[id] = make([]byte, 8)
			wg.Add(1)
			go func(id, e int) {
				defer wg.Done()
				if e%2 == 0 {
					b.Wait(id)
					return
				}
				in := make([]byte, 8)
				binary.BigEndian.PutUint64(in, uint64(id))
				if err := b.AllReduce(id, in, results[id]); err != nil {
					t.Errorf("episode %d id %d: %v", e, id, err)
				}
			}(id, e)
		}
		wg.Wait()
		if e%2 == 1 {
			for id := 0; id < p; id++ {
				if got := binary.BigEndian.Uint64(results[id]); got != 10 {
					t.Fatalf("episode %d id %d: sum %d, want 10", e, id, got)
				}
			}
		}
	}
}

// TestCollectiveFuzzySplit drives ArriveReduce/AwaitResult separately —
// the fuzzy-barrier shape of AllReduce.
func TestCollectiveFuzzySplit(t *testing.T) {
	const p = 4
	op := OpSumUint64()
	for _, tc := range []struct {
		name string
		b    Collective
	}{
		{"tree", NewCombiningTree(p, 2, WithCollective(op))},
		{"reconfig", NewReconfigurable(p, ReconfigConfig{}, WithCollective(op))},
	} {
		type fuzzy interface {
			ArriveReduce(id int, in []byte) error
			AwaitResult(id int, out []byte) error
		}
		fb := tc.b.(fuzzy)
		t.Run(tc.name, func(t *testing.T) {
			var wg sync.WaitGroup
			sums := make([]uint64, p)
			for id := 0; id < p; id++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					in := make([]byte, 8)
					out := make([]byte, 8)
					binary.BigEndian.PutUint64(in, uint64(id+1))
					if err := fb.ArriveReduce(id, in); err != nil {
						t.Errorf("arrive %d: %v", id, err)
						return
					}
					// Slack work would go here.
					if err := fb.AwaitResult(id, out); err != nil {
						t.Errorf("await %d: %v", id, err)
						return
					}
					sums[id] = binary.BigEndian.Uint64(out)
				}(id)
			}
			wg.Wait()
			for id, s := range sums {
				if s != 10 {
					t.Fatalf("participant %d sum %d, want 10", id, s)
				}
			}
		})
	}
}

// TestCollectiveWithoutOption checks the ErrNoCollective contract.
func TestCollectiveWithoutOption(t *testing.T) {
	for _, b := range []Collective{
		NewCombiningTree(3, 2),
		NewDynamic(3, 2),
		NewReconfigurable(3, ReconfigConfig{}),
	} {
		if err := b.AllReduce(0, nil, nil); err != ErrNoCollective {
			t.Fatalf("AllReduce without option: %v", err)
		}
		if err := b.Reduce(0, 0, nil, nil); err != ErrNoCollective {
			t.Fatalf("Reduce without option: %v", err)
		}
		if err := b.Broadcast(0, 0, nil); err != ErrNoCollective {
			t.Fatalf("Broadcast without option: %v", err)
		}
	}
}

// TestOpByName pins the built-in registry used by cmd/barrierd.
func TestOpByName(t *testing.T) {
	for _, name := range OpNames() {
		op, ok := OpByName(name)
		if !ok {
			t.Fatalf("OpNames lists %q but OpByName misses it", name)
		}
		if op.Name != name {
			t.Fatalf("op %q reports name %q", name, op.Name)
		}
		if err := op.Validate(); err != nil {
			t.Fatalf("builtin op %q invalid: %v", name, err)
		}
	}
	if _, ok := OpByName("no-such-op"); ok {
		t.Fatal("unknown op resolved")
	}
}
