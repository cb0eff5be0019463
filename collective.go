package softbarrier

import (
	"errors"
	"slices"

	rt "softbarrier/internal/runtime"
)

// Op is an associative combining operator over fixed-width byte strings:
// the payload a collective barrier carries. See the field docs on
// internal/runtime.Op — in particular the Commutative contract, which
// selects folding during the ascent, each node's inputs in input order by
// whoever completes the node (the σ-aware "pre-reduce early arrivals"
// policy), versus the deterministic ascending-id fold at the root.
type Op = rt.Op

// ErrNoCollective is returned by the collective methods of a barrier that
// was built without WithCollective.
var ErrNoCollective = errors.New("softbarrier: barrier built without WithCollective")

// Collective is a barrier whose release wave carries data: the reduction
// of every participant's contribution (AllReduce), delivered to one root
// (Reduce), or one root's value fanned out to everyone (Broadcast). All
// three piggyback on the ordinary episode — a collective call is a
// barrier episode that happens to move Op.Width bytes — and may be mixed
// freely with plain Wait episodes on the same barrier, as long as all
// participants make the same call per episode.
//
// TreeBarrier, DynamicBarrier and ReconfigurableBarrier implement it when
// constructed with WithCollective.
type Collective interface {
	PhasedBarrier
	// AllReduce contributes in, waits for the episode, and copies the
	// reduction of all contributions into out (out may be in; both are
	// Op.Width bytes).
	AllReduce(id int, in, out []byte) error
	// Reduce is AllReduce with the result delivered only to root; other
	// participants' out is ignored.
	Reduce(id, root int, in, out []byte) error
	// Broadcast delivers root's buf to every participant's buf.
	Broadcast(id, root int, buf []byte) error
}

// Collective episode modes, threaded through the ascent in the releaser's
// stack frame: every participant of one episode must use the same mode
// (the "same call per episode" contract above), so no shared mode state
// is needed. A reduction folds during the ascent on a barrier whose op is
// Commutative (treeCore.folding), and in id order at the root otherwise.
const (
	collReduce uint8 = iota + 1 // contribute to the episode's fold
	collBcast                   // root deposits; the releaser selects its cell
)

// checkContribution enforces the contribution-width contract, which a
// result buffer is held to as well; breaking it is a programming error
// like a bad participant id.
func checkContribution(red *rt.Reducer, in []byte) {
	if len(in) != red.Width() {
		panic("softbarrier: contribution length does not match the collective op's width")
	}
}

// OpSumUint64 returns uint64 addition (big-endian, wrapping): commutative,
// identity 0.
func OpSumUint64() Op { return rt.SumUint64() }

// OpMinUint64 returns the uint64 minimum: commutative, identity MaxUint64.
func OpMinUint64() Op { return rt.MinUint64() }

// OpMaxUint64 returns the uint64 maximum: commutative, identity 0.
func OpMaxUint64() Op { return rt.MaxUint64() }

// OpXorUint64 returns uint64 exclusive-or: commutative, identity 0.
func OpXorUint64() Op { return rt.XorUint64() }

// OpSumFloat64 returns float64 addition over IEEE-754 bits. It is
// deliberately not marked Commutative: float addition is not associative,
// so the deterministic ascending-id fold is used and every episode's
// result is bit-for-bit the sequential fold — at the cost of skipping the
// greedy pre-reduce. Identity +0.0.
func OpSumFloat64() Op { return rt.SumFloat64() }

// builtinOps is the by-name registry OpByName consults. Ops cannot travel
// the wire (they are code), so a networked session configures the op by
// name on both sides — cmd/barrierd's -collective flag resolves here.
var builtinOps = map[string]func() Op{
	"sum-u64": OpSumUint64,
	"min-u64": OpMinUint64,
	"max-u64": OpMaxUint64,
	"xor-u64": OpXorUint64,
	"sum-f64": OpSumFloat64,
}

// OpByName resolves a built-in op by its wire name. It returns false for
// unknown names; OpNames lists the known ones.
func OpByName(name string) (Op, bool) {
	f, ok := builtinOps[name]
	if !ok {
		return Op{}, false
	}
	return f(), true
}

// OpNames returns the built-in op names in sorted order.
func OpNames() []string {
	names := make([]string, 0, len(builtinOps))
	for n := range builtinOps {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}
