package softbarrier

import (
	"context"

	rt "softbarrier/internal/runtime"
)

// TournamentBarrier is the tournament barrier (Hensgen, Finkel & Manber;
// the variant with statically determined winners, as presented by
// Mellor-Crummey & Scott): participants pair up over ⌈log₂ p⌉ rounds. In
// each round the statically chosen loser signals its winner and drops out
// to wait; the winner advances. The overall champion (participant 0)
// observes the final round and broadcasts the release.
//
// Like the dissemination barrier it needs no degree tuning, and like the
// combining tree its arrival pattern is a (binary) tree — it is the other
// classic baseline for the paper's imbalance study.
//
// Round flags and the release broadcast run on the shared
// internal/runtime waiter (bounded spin → yield → park); flags carry the
// monotone episode number, so no per-participant epoch bookkeeping is
// needed beyond the release gate's generation.
type TournamentBarrier struct {
	p      int
	rounds int
	policy rt.WaitPolicy
	// arrive[r][winner] is set by the loser paired with winner.
	arrive [][]rt.Cell
	gate   rt.Gate
	local  []arrivalSlot
	rec    *rt.Recorder
	poisonCore
}

// NewTournament returns a tournament barrier for p participants.
func NewTournament(p int, opts ...Option) *TournamentBarrier {
	if p < 1 {
		panic("softbarrier: need at least one participant")
	}
	o := applyOptions(opts)
	rounds := 0
	for 1<<rounds < p {
		rounds++
	}
	b := &TournamentBarrier{p: p, rounds: rounds, policy: o.policy}
	b.arrive = make([][]rt.Cell, rounds)
	for r := range b.arrive {
		b.arrive[r] = make([]rt.Cell, p)
		rt.InitCells(b.arrive[r])
	}
	b.local = make([]arrivalSlot, p)
	b.gate.Init(o.policy)
	b.rec = o.recorder(p, 0)
	b.initPoison(p, o.watchdog, o.poisonNotify, b)
	return b
}

func (b *TournamentBarrier) wakeWaiters() {
	b.gate.Poison()
	for r := range b.arrive {
		for i := range b.arrive[r] {
			b.arrive[r][i].Poison()
		}
	}
}

func (b *TournamentBarrier) clearEpisode() {
	for r := range b.arrive {
		for i := range b.arrive[r] {
			b.arrive[r][i].Reset()
		}
	}
	clear(b.local) // arrival counts; every id arrives before it awaits
	b.gate.Unpoison()
}

func (b *TournamentBarrier) slotArrivals() []uint64 { return slotCounts(b.local) }

// Participants returns P.
func (b *TournamentBarrier) Participants() int { return b.p }

// Rounds returns ⌈log₂ p⌉.
func (b *TournamentBarrier) Rounds() int { return b.rounds }

// Wait blocks until all participants arrive.
func (b *TournamentBarrier) Wait(id int) {
	b.Arrive(id)
	b.Await(id)
}

// Arrive plays participant id's tournament rounds; the champion releases
// the episode. On a poisoned barrier it is a no-op; a winner woken from a
// round wait by poison abandons its remaining rounds.
func (b *TournamentBarrier) Arrive(id int) {
	checkID(id, b.p)
	if b.poisoned() {
		return
	}
	b.noteArrive(id)
	mine := b.gate.Seq() // the 0-based episode index; stable until release
	b.rec.Arrive(id, mine)
	b.local[id].episode = mine
	b.local[id].arrivals++
	want := mine + 1 // monotone per flag, never the zero initial value
	for r := 0; r < b.rounds; r++ {
		bit := 1 << r
		if id&bit != 0 {
			// Statically determined loser: signal the winner, drop out.
			b.arrive[r][id&^bit].Set(want)
			return
		}
		partner := id | bit
		if partner >= b.p {
			continue // bye: no opponent in this round
		}
		if b.arrive[r][id].AwaitAtLeast(want, b.policy) == rt.PoisonValue {
			return // poison wake: the episode is dead, the gate is poisoned too
		}
	}
	// Champion (id 0): everyone has arrived. Measure while the arrival
	// slots are quiescent, then broadcast the release.
	b.rec.Release(mine, rt.Extra{})
	b.gate.Open()
}

// Await blocks (spin → yield → park) until the episode's release or the
// barrier is poisoned.
func (b *TournamentBarrier) Await(id int) {
	checkID(id, b.p)
	b.gate.Await(b.local[id].episode)
}

// WaitCtx is Wait with cancellation: if ctx ends while the wait is in
// flight the barrier is poisoned, and the poison error is returned.
func (b *TournamentBarrier) WaitCtx(ctx context.Context, id int) error {
	checkID(id, b.p)
	return b.waitCtx(ctx, func() { b.Wait(id) })
}

// AwaitCtx is Await with cancellation, with WaitCtx's poison semantics.
func (b *TournamentBarrier) AwaitCtx(ctx context.Context, id int) error {
	checkID(id, b.p)
	return b.waitCtx(ctx, func() { b.Await(id) })
}

var _ PhasedBarrier = (*TournamentBarrier)(nil)
var _ ContextBarrier = (*TournamentBarrier)(nil)
