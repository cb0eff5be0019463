package softbarrier

import (
	"context"
	"sync/atomic"
	"unsafe"

	rt "softbarrier/internal/runtime"
	"softbarrier/internal/topology"
)

// treeCore is the one combining tree under TreeBarrier, DynamicBarrier and
// ReconfigurableBarrier: a tree of atomic counters that participants
// ascend on arrival, one fetch-and-add per counter visited; whoever
// completes a counter's fan-in proceeds to the parent, and completing the
// root releases the episode. Counters reverse sense instead of being reset:
// up on even generations, down on odd ones. Nothing on the ascent takes a
// lock, folding included (folding, below).
//
// The paper's point is that static, MCS and dynamic placement are this
// same tree with a different answer to "who sits where", so the ascent,
// the release wait and the collective path exist once, here, and the three
// barriers embed the core and add only their policy: a static tree is the
// epoch that never changes (tree.go), dynamic placement is two steps
// around the ascent (dynamic.go), and the reconfigurable barrier replaces
// the epoch at the root (reconfigurable.go).
//
// The policies are fixed at construction and are plain fields the ascent
// branches on — the loop runs a hundred-odd times per 32-participant
// episode, so a policy is a predictable branch, never an indirect call.
type treeCore struct {
	gate  rt.Gate
	state atomic.Pointer[treeEpoch] // replaced only at quiescent points
	// first is the construction-time epoch, held inline so that a barrier
	// whose epoch never changes pays no allocation for the indirection. An
	// elastic barrier's later epochs are allocated; its first one's arrays
	// then stay reachable for the barrier's lifetime.
	first treeEpoch

	rec *rt.Recorder
	red *rt.Reducer // payload reducer; nil without WithCollective

	dynamic bool // victor/victim placement (dynamic.go)
	// folding is set on a barrier whose collective op is Commutative: every
	// arrival, plain ones included (the identity), puts its contribution in
	// its input cell at its first counter, and each counter's completer
	// folds the counter's inputs into its own input at the parent.
	folding bool
	swaps   atomic.Uint64 // placement swaps so far
	// elastic, when set, is the embedding barrier whose release runs at the
	// root completion in place of the plain measure-and-open.
	elastic *ReconfigurableBarrier
	poisonCore

	// Six whole cache lines, for the reason ReconfigurableBarrier has eight
	// (reconfigurable.go): unpadded, its 336 bytes fall in the 352-byte
	// allocation class, whose objects do not start on a cache line.
	_ [48]byte
}

// treeEpoch is one epoch's rebuildable configuration: the topology, its
// counters, and the per-participant slots.
type treeEpoch struct {
	p        int
	epoch    uint64
	tree     *topology.Tree
	counters []treeCounter
	// order is the placement order the epoch's tree was built with, nil
	// for the natural ascending-id placement.
	order []int
	// slots only ever grows across epochs (shrunk ids keep their slot so
	// their final Await still reads a valid generation while they drain
	// out).
	slots []treeSlot
	// sigma and episodes are the σ estimate and the episode count the epoch
	// was planned at (reconfigurable.go); zero on a static tree.
	sigma    float64
	episodes uint64
}

// treeCounter is one tree node's arrival counter, plus the fields dynamic
// placement hands a displaced participant over with, padded to a cache
// line of its own. There is no lock: count is one atomic add per visit,
// never reset — up to fanIn through an even generation, back to 0 through
// the next. The placement fields are ordered by the counter chain (dynamic.go).
type treeCounter struct {
	count  atomic.Int32
	fanIn  int32
	parent int32
	// in is the counter's first input cell (rt.Reducer): its fanIn inputs
	// are cells in … in+fanIn−1, its participants' (the local one, first)
	// then its children's. up is its own input at the parent, or the
	// output cell at the root.
	in, up int32
	// local is the participant occupying the counter's local slot, or
	// topology.NoProc (classic trees; the ring merge root accepts no
	// migrants). For internal counters it always names the participant
	// whose first counter this is.
	local int32
	// evicted/destination/destIn implement the victim hand-off: evicted
	// names the displaced participant (one-shot, cleared on consumption),
	// destination its new first counter and destIn its input cell there,
	// both written before evicted publishes them.
	evicted     atomic.Int32
	destination int32
	destIn      int32
	_           [rt.CacheLine - 36]byte
}

// treeSlot is one participant's owner-written state, on its own cache
// line.
type treeSlot struct {
	gen      uint64 // generation of the episode the participant last arrived in
	next     uint64 // earliest generation its next arrival may join
	first    int    // its first counter; moves only under dynamic placement
	in       int    // its input cell at first, which moves with it
	arrivals uint64 // its arrivals since construction, Reset or a membership change
	_        [rt.CacheLine - 40]byte
}

// Each line compiles only when the struct is exactly its size: one cache
// line, and six for treeCore, so the padding above cannot silently drift
// when a field changes.
const (
	_ = 6*rt.CacheLine - unsafe.Sizeof(treeCore{})
	_ = unsafe.Sizeof(treeCore{}) - 6*rt.CacheLine
	_ = rt.CacheLine - unsafe.Sizeof(treeCounter{})
	_ = unsafe.Sizeof(treeCounter{}) - rt.CacheLine
	_ = rt.CacheLine - unsafe.Sizeof(treeSlot{})
	_ = unsafe.Sizeof(treeSlot{}) - rt.CacheLine
)

// newTreeEpoch builds the counters and slots for tree, carrying forward
// the generation slots of prev (nil for the initial epoch). epochGen is the
// gate generation at which the epoch's first episode runs; its parity is
// the end the counts start from.
func newTreeEpoch(tree *topology.Tree, prev *treeEpoch, epochGen uint64) treeEpoch {
	st := treeEpoch{p: tree.P, tree: tree, counters: make([]treeCounter, len(tree.Counters))}
	var inputs int32
	for i := range st.counters {
		c, tc := &tree.Counters[i], &st.counters[i]
		tc.fanIn, tc.parent, tc.in = int32(c.FanIn()), int32(c.Parent), inputs
		inputs += tc.fanIn
		if n := startCount(tc.fanIn, epochGen); n != 0 {
			tc.count.Store(n) // the counter is fresh: 0 needs no store
		}
		tc.local, tc.destination = int32(c.Local), topology.NoCounter
		tc.evicted.Store(topology.NoProc)
	}
	st.counters[tree.Root].up = inputs
	n := tree.P
	if prev != nil && len(prev.slots) > n {
		n = len(prev.slots)
	}
	st.slots = make([]treeSlot, n)
	admitted := 0
	if prev != nil {
		copy(st.slots, prev.slots)
		admitted = prev.p
	}
	for id := 0; id < tree.P; id++ {
		st.slots[id].first = tree.FirstCounter(id)
		if id >= admitted {
			// A freshly grown participant can observe the new epoch
			// (Participants covers it) before the admitting episode's
			// release has opened the gate; it must not join before then.
			st.slots[id].next = epochGen
		}
	}
	for i := range tree.Counters {
		in := st.counters[i].in
		for _, id := range tree.Counters[i].Procs {
			st.slots[id].in, in = int(in), in+1
		}
		for _, ch := range tree.Counters[i].Children {
			st.counters[ch].up, in = in, in+1
		}
	}
	return st
}

// inputs returns the number of input cells the epoch's tree folds through;
// the root's completer folds into the cell after them.
func (st *treeEpoch) inputs() int { return int(st.counters[st.tree.Root].up) }

// startCount is where a counter stands before generation gen's first
// arrival: 0 to count up through an even one, fanIn to count down.
func startCount(fanIn int32, gen uint64) int32 { return fanIn & -int32(gen&1) }

// depths returns each participant's synchronization path length in the
// epoch's tree as built.
func (st *treeEpoch) depths() []int {
	d := make([]int, st.p)
	for id := range d {
		d[id] = st.tree.Depth(st.tree.FirstCounter(id))
	}
	return d
}

// init wires the core around its first epoch.
func (b *treeCore) init(o options, first treeEpoch) {
	b.gate.Init(o.policy)
	b.first = first
	st := &b.first
	b.state.Store(st)
	// An elastic barrier measures without an observer too: on its re-plan
	// cadence, or every episode for a placement policy.
	var every uint64
	if e := b.elastic; e != nil {
		every = e.replanEvery
		if e.place != nil {
			every = 1
		}
	}
	b.rec = o.recorder(st.p, every)
	b.red = o.reducer(st.p, st.inputs())
	b.folding = b.red != nil && b.red.Op().Commutative
	b.initPoison(st.p, o.watchdog, o.poisonNotify, b)
}

func (b *treeCore) wakeWaiters() { b.gate.Poison() }

func (b *treeCore) slotArrivals() []uint64 {
	st := b.state.Load()
	out := make([]uint64, st.p)
	for i := range out {
		out[i] = st.slots[i].arrivals
	}
	return out
}

// clearEpisode drops the aborted episode's partial counts for Reset, back
// to where the aborted generation, which runs again, started from. Input
// cells need no clearing: every input is put again before it is counted.
// Dynamic placement state (local slots, pending evictions, first counters
// and their input cells) survives: it is a consistent placement at every
// ascent boundary, and pending victims adopt their destination on their
// next arrival.
func (b *treeCore) clearEpisode() {
	st, gen := b.state.Load(), b.gate.Seq()
	for i := range st.counters {
		st.counters[i].count.Store(startCount(st.counters[i].fanIn, gen))
	}
	// Whoever arrived in the aborted episode arrives in its generation
	// again: Reset does not advance the gate.
	for i := range st.slots {
		st.slots[i].next, st.slots[i].arrivals = 0, 0
	}
	b.gate.Unpoison()
}

// Participants returns the participant count P. On a
// ReconfigurableBarrier it is the current epoch's, and reflects a
// committed membership change as soon as the changing episode's release
// is published, so a worker observing its id outside [0, Participants)
// after Wait returns has been shrunk away and must stop calling Wait.
func (b *treeCore) Participants() int { return b.state.Load().p }

// Degree returns the (current) tree's construction degree.
func (b *treeCore) Degree() int { return b.state.Load().tree.Degree }

// LagsInto reads the given episode's per-participant arrival lags
// (seconds behind the episode's earliest arrival) into dst, which is
// reused when it has the capacity. Like the recorder it wraps, it is
// releaser-only before the episode's release; it returns nil for an
// episode that was not measured (all, on a tree with no observer).
func (b *treeCore) LagsInto(episode uint64, dst []float64) []float64 {
	return b.rec.LagsInto(episode, dst)
}

// Wait blocks until all participants arrive.
func (b *treeCore) Wait(id int) {
	b.Arrive(id)
	b.Await(id)
}

// Arrive performs participant id's counter ascent. If id completes the
// root counter it releases the episode before returning — on a
// ReconfigurableBarrier after re-planning. On a poisoned barrier it is a
// no-op, as it is for an id the current epoch has shrunk away (such a
// participant is draining out and must not touch the counters).
func (b *treeCore) Arrive(id int) { b.arrive(id, nil) }

// payload is one arrival's contribution on its way up the tree: mode
// selects how it travels (a reduction's, into an input cell on a folding
// barrier and a deposit cell otherwise, or a broadcast root's deposit). It
// stays in the collective call's frame and the ascent takes a pointer:
// threading mode, root and data through as arguments keeps them live
// across every call in the loop, which cost the plain episode about 5%.
type payload struct {
	mode uint8
	root int    // collBcast: whose data is delivered
	data []byte // the contribution
}

// arrive is the ascent; pl is nil for a plain arrival.
func (b *treeCore) arrive(id int, pl *payload) {
	st := b.state.Load()
	checkID(id, len(st.slots))
	if pl != nil {
		checkContribution(b.red, pl.data)
	}
	// An arrival can reach the tree before the gate has opened on the
	// participant's previous episode: a coordinator arriving for remote
	// members (internal/netbarrier) never Awaits and learns of the release
	// from the Observer, which runs first; a freshly grown participant sees
	// its epoch before the admitting release. Entering then would stamp the
	// old generation — deposit into the wrong parity, unblock on the wrong
	// release — so wait on the gate until it has moved on. That release may
	// install a new epoch, hence the re-load.
	gen := b.gate.Seq()
	for gen < st.slots[id].next {
		b.gate.Await(gen)
		st = b.state.Load()
		gen = b.gate.Seq()
	}
	if id >= st.p {
		return // shrunk away; drain without contributing
	}
	if b.poisoned() {
		return
	}
	b.noteArrive(id)
	// gen is exactly this participant's episode index: the episode cannot
	// be released (advancing the generation) before this arrival
	// contributes to it, and a poisoned sample never gets here.
	b.rec.Arrive(id, gen)
	sl := &st.slots[id]
	sl.gen, sl.next = gen, gen+1
	sl.arrivals++
	if b.dynamic {
		st.adopt(id, sl)
	}
	var put []byte // what a folding barrier puts: the contribution, or nil (the identity)
	if pl != nil {
		switch {
		case pl.mode == collBcast:
			// Deposit cell 0 carries a broadcast: a commutative op's
			// reducer has no other.
			if id == pl.root {
				b.red.Deposit(gen, 0, pl.data)
			}
		case b.folding:
			put = pl.data
		default:
			b.red.Deposit(gen, id, pl.data)
		}
	}
	if b.folding {
		// Into the input cell at the first counter (adopt has moved both),
		// before the add that counts it.
		b.red.Put(sl.in, put)
	}
	// The sense of the count: +1 towards fanIn on an even generation, −1
	// towards 0 on an odd one; fanIn&full is the end being counted towards.
	odd := int32(gen & 1)
	step, full := 1-2*odd, odd-1

	for cn := sl.first; cn != topology.NoCounter; {
		tc := &st.counters[cn]
		if tc.count.Add(step) != tc.fanIn&full {
			// Not the last, who leaves the count at the far end: where the
			// next generation, of the other parity, starts. No reset.
			return
		}
		if b.folding {
			// The add saw every input's: fold them into cn's own input at
			// the parent, before the add there.
			b.red.FoldInputs(int(tc.in), int(tc.fanIn), int(tc.up))
		}
		// id arrived last in cn's whole subtree: under dynamic placement it
		// positions itself here before touching the parent, so the swap is
		// ordered before any possible release.
		if b.dynamic && cn != sl.first && st.victorSwap(id, sl, cn) {
			b.swaps.Add(1)
		}
		cn = int(tc.parent)
	}

	// Root completed: publish the result while the cells are quiescent —
	// before release applies any epoch rebuild, so the fold runs over this
	// episode's membership and tree.
	if pl != nil {
		switch {
		case pl.mode == collBcast:
			b.red.PublishCell(gen, 0)
		case b.folding:
			b.red.PublishOutput(gen)
		default:
			b.red.FinishCells(gen, st.p)
		}
	}
	if b.elastic != nil {
		b.elastic.release(st)
		return
	}
	// Measure while the arrival slots are quiescent, then release everyone.
	b.rec.Release(gen, rt.Extra{Swaps: b.swaps.Load(), Degree: st.tree.Degree})
	b.gate.Open()
}

// Await blocks participant id until the episode it arrived in completes
// or the barrier is poisoned.
func (b *treeCore) Await(id int) {
	st := b.state.Load()
	checkID(id, len(st.slots))
	b.gate.Await(st.slots[id].gen)
}

// WaitCtx is Wait with cancellation: if ctx ends while the wait is in
// flight the barrier is poisoned, and the poison error is returned.
func (b *treeCore) WaitCtx(ctx context.Context, id int) error {
	checkID(id, len(b.state.Load().slots))
	return b.waitCtx(ctx, func() { b.Wait(id) })
}

// AwaitCtx is Await with cancellation, with WaitCtx's poison semantics.
func (b *treeCore) AwaitCtx(ctx context.Context, id int) error {
	checkID(id, len(b.state.Load().slots))
	return b.waitCtx(ctx, func() { b.Await(id) })
}

// AllReduce contributes in, completes one barrier episode, and copies the
// reduction of all the epoch's contributions into out (out may alias in,
// or be nil to discard; like in, it is Op.Width bytes). It returns ErrNoCollective on a barrier built
// without WithCollective, and the poison cause if the episode was
// aborted. Every participant must make the same collective call for the
// episode.
//
// Under dynamic placement and systemic imbalance the migration is itself
// the σ-aware reduction policy: the consistently late participant ends up
// adjacent to the root, so its contribution folds last and the
// post-arrival critical path shrinks to O(1) folds.
//
// On a ReconfigurableBarrier a participant the current epoch has shrunk
// away drains without contributing and without a result — exactly as Wait
// drains it — so an elastic worker follows the same protocol as ever:
// check Participants after each collective call and stop once its id
// falls outside the membership (its final episode's result is then not
// delivered locally; netbarrier sessions deliver it in the Release frame
// instead). Epoch boundaries preserve in-flight contributions: the
// rebuild happens at the quiescent release point, after the episode's
// result is published into buffers that survive it.
func (b *treeCore) AllReduce(id int, in, out []byte) error {
	if b.red == nil {
		return ErrNoCollective
	}
	b.arrive(id, &payload{mode: collReduce, data: in})
	return b.AwaitResult(id, out)
}

// Reduce is AllReduce with the result delivered only to root; the other
// participants' out arguments are ignored. root must stay inside the
// membership for the episode.
func (b *treeCore) Reduce(id, root int, in, out []byte) error {
	if b.red == nil {
		return ErrNoCollective
	}
	checkID(root, b.state.Load().p)
	b.arrive(id, &payload{mode: collReduce, data: in})
	if id != root {
		out = nil
	}
	return b.AwaitResult(id, out)
}

// Broadcast completes one episode delivering root's buf into every other
// participant's buf (root's own buf is left untouched). buf must be
// Op.Width bytes for every participant.
func (b *treeCore) Broadcast(id, root int, buf []byte) error {
	if b.red == nil {
		return ErrNoCollective
	}
	checkID(root, b.state.Load().p)
	b.arrive(id, &payload{mode: collBcast, root: root, data: buf})
	if id == root {
		buf = nil
	}
	return b.AwaitResult(id, buf)
}

// ArriveReduce is the fuzzy half of AllReduce/Reduce: it contributes in
// and performs the ascent without waiting — do slack work, then collect
// the result with AwaitResult. It returns ErrNoCollective on a barrier
// built without WithCollective; on a poisoned barrier it is a no-op (the
// matching AwaitResult reports the cause).
func (b *treeCore) ArriveReduce(id int, in []byte) error {
	if b.red == nil {
		return ErrNoCollective
	}
	b.arrive(id, &payload{mode: collReduce, data: in})
	return nil
}

// AwaitResult blocks until the episode ArriveReduce contributed to
// completes and copies its reduction into out (nil discards it; otherwise
// it must be Op.Width bytes, as a contribution must). The copy
// is skipped — out is left untouched — when this participant is outside
// the membership after the release (it was draining, or was shrunk away
// at the episode's boundary): such a participant is no longer ordered
// against future episodes, so reading the shared result buffer would race
// with a later publish. Call AwaitResult exactly once per ArriveReduce,
// before the participant's next episode.
func (b *treeCore) AwaitResult(id int, out []byte) error {
	if b.red == nil {
		return ErrNoCollective
	}
	if out != nil {
		checkContribution(b.red, out)
	}
	b.Await(id)
	if err := b.Err(); err != nil {
		return err
	}
	// Re-load: the episode's release may have committed a new epoch, and
	// membership is judged against the post-release state.
	cur := b.state.Load()
	if out != nil && id < cur.p {
		b.red.CopyResult(cur.slots[id].gen, out)
	}
	return nil
}

// Reduced returns the published reduction of the given episode, for
// coordinators that drive the barrier through ArriveReduce on behalf of
// remote participants (internal/netbarrier). The slice is read-only and
// valid until the episode two generations later is published; it is nil
// without WithCollective.
func (b *treeCore) Reduced(episode uint64) []byte {
	if b.red == nil {
		return nil
	}
	return b.red.Result(episode)
}
