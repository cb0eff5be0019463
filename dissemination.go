package softbarrier

import (
	"context"

	rt "softbarrier/internal/runtime"
)

// DisseminationBarrier is the classic dissemination barrier (Hensgen,
// Finkel & Manber): ⌈log₂ p⌉ rounds in which participant i signals
// participant (i + 2^round) mod p and waits for a signal from
// (i − 2^round) mod p. No participant ever spins on a remote location for
// long, and there is no combining tree to tune — it is the standard
// baseline the combining-tree literature (including the MCS paper the
// dynamic-placement barrier builds on) compares against.
//
// Under load imbalance its synchronization delay is Θ(log p) rounds
// *after the last arrival* regardless of the arrival spread, which is why
// the paper's imbalance-aware combining trees can beat it: they collapse
// toward O(1) for the late processor.
//
// Each round's wait runs on the shared internal/runtime waiter: a bounded
// spin, a yielding phase, then a park — replacing the former unbounded
// Gosched loop. Flags carry the (monotone) episode number, with the
// classic parity split so the two in-flight episodes never share a slot.
type DisseminationBarrier struct {
	p      int
	rounds int
	policy rt.WaitPolicy
	// flags[id][2*round+parity] is the arrival flag signalled to id.
	flags [][]rt.Cell
	// state is each participant's episode counter and arrival count.
	state []arrivalSlot
	rec   *rt.Recorder
	poisonCore
}

// NewDissemination returns a dissemination barrier for p participants.
func NewDissemination(p int, opts ...Option) *DisseminationBarrier {
	if p < 1 {
		panic("softbarrier: need at least one participant")
	}
	o := applyOptions(opts)
	rounds := 0
	for 1<<rounds < p {
		rounds++
	}
	b := &DisseminationBarrier{p: p, rounds: rounds, policy: o.policy}
	b.flags = make([][]rt.Cell, p)
	for i := range b.flags {
		b.flags[i] = make([]rt.Cell, 2*rounds)
		rt.InitCells(b.flags[i])
	}
	b.state = make([]arrivalSlot, p)
	b.rec = o.recorder(p, 0)
	b.initPoison(p, o.watchdog, o.poisonNotify, b)
	return b
}

// wakeWaiters poisons every round flag: there is no central gate, and each
// participant is parked on (at most) one of its own.
func (b *DisseminationBarrier) wakeWaiters() {
	for i := range b.flags {
		for j := range b.flags[i] {
			b.flags[i][j].Poison()
		}
	}
}

func (b *DisseminationBarrier) clearEpisode() {
	for i := range b.flags {
		for j := range b.flags[i] {
			b.flags[i][j].Reset()
		}
	}
	// The aborted episode left the per-participant counters divergent;
	// restart everyone from episode zero to match the zeroed flags
	// (arrival counts zeroed too).
	clear(b.state)
}

func (b *DisseminationBarrier) slotArrivals() []uint64 { return slotCounts(b.state) }

// Participants returns P.
func (b *DisseminationBarrier) Participants() int { return b.p }

// Rounds returns ⌈log₂ p⌉, the number of signalling rounds per episode.
func (b *DisseminationBarrier) Rounds() int { return b.rounds }

// Wait blocks until all participants arrive. On a poisoned barrier it
// returns immediately; a participant woken mid-round by poison abandons
// the episode (its counter does not advance).
func (b *DisseminationBarrier) Wait(id int) {
	checkID(id, b.p)
	if b.poisoned() {
		return
	}
	b.noteArrive(id)
	st := &b.state[id]
	st.arrivals++
	ep := st.episode
	b.rec.Arrive(id, ep)
	parity := int(ep & 1)
	// Flag values are the 1-based episode number: monotone per slot (each
	// parity slot sees every other episode), and never equal to a cell's
	// zero initial value.
	want := ep + 1
	for r := 0; r < b.rounds; r++ {
		partner := (id + (1 << r)) % b.p
		b.flags[partner][2*r+parity].Set(want)
		if b.flags[id][2*r+parity].AwaitAtLeast(want, b.policy) == rt.PoisonValue {
			return
		}
	}
	if id == 0 {
		// Participant 0 is the designated telemetry reporter: its exit
		// happens-after every participant's arrival (transitively through
		// the signalling rounds), and its own next arrival — which the
		// same-parity slots' reuse waits on — comes after this read.
		b.rec.Release(ep, rt.Extra{})
	}
	st.episode++
}

// WaitCtx is Wait with cancellation: if ctx ends while the wait is in
// flight the barrier is poisoned, and the poison error is returned.
func (b *DisseminationBarrier) WaitCtx(ctx context.Context, id int) error {
	checkID(id, b.p)
	return b.waitCtx(ctx, func() { b.Wait(id) })
}

var _ Barrier = (*DisseminationBarrier)(nil)
var _ ContextBarrier = (*DisseminationBarrier)(nil)
