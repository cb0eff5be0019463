package runtime

import (
	"fmt"
	"sync"
	"unsafe"
)

// Op is an associative combining operator over fixed-width byte strings —
// what turns an arrival-counting tree into a reduction tree. Fold must be
// associative over Width-byte values; Commutative additionally promises
// that operand order does not matter, which lets the barrier fold
// contributions greedily in arrival order during the ascent (the
// pre-reduce-early-arrivals policy) instead of deferring to a
// deterministic id-order fold at the root.
//
// Note the fine print on Commutative: the greedy path's parenthesization
// follows the arrival order, so an op that is commutative but not exactly
// associative (float addition) will produce run-to-run result wobble.
// Leave Commutative false when bit-for-bit reproducibility matters; the
// id-order fold is deterministic regardless of arrival order.
type Op struct {
	// Name identifies the op on the wire and in logs (both sides of a
	// networked session must configure the same op out-of-band).
	Name string
	// Width is the contribution size in bytes; every Deposit and Fold
	// operand is exactly Width bytes.
	Width int
	// Commutative enables greedy arrival-order folding during the ascent.
	Commutative bool
	// Identity, when non-nil, is the op's identity element (folded for
	// members that depart without contributing). nil means Width zero
	// bytes.
	Identity []byte
	// Fold combines src into dst in place: dst = dst ∘ src.
	Fold func(dst, src []byte)
}

// Validate reports whether the op is usable.
func (op Op) Validate() error {
	if op.Width <= 0 {
		return fmt.Errorf("runtime: op %q width %d must be positive", op.Name, op.Width)
	}
	if op.Fold == nil {
		return fmt.Errorf("runtime: op %q has no fold function", op.Name)
	}
	if op.Identity != nil && len(op.Identity) != op.Width {
		return fmt.Errorf("runtime: op %q identity is %d bytes, want %d", op.Name, len(op.Identity), op.Width)
	}
	return nil
}

// identity returns the identity element, materializing the all-zero
// default.
func (op Op) identity() []byte {
	if op.Identity != nil {
		return op.Identity
	}
	return make([]byte, op.Width)
}

// CacheLine is the line size hot per-node and per-participant state is
// padded to.
const CacheLine = 64

// cellStride rounds a contribution width up to a cache-line multiple so
// adjacent participants' deposit cells never share a line.
func cellStride(width int) int { return (width + CacheLine - 1) &^ (CacheLine - 1) }

// Reducer carries the payload side of a combining-tree episode: padded
// per-participant deposit cells, per-node fold accumulators, and the
// published per-episode result. It is the payload twin of the Recorder
// and inherits its memory-safety argument wholesale: cells and results
// are double-buffered by episode parity, a participant racing ahead into
// episode k+1 uses the other buffer, and nobody can reach episode k+2
// (parity of k) before the episode-k releaser — who folds and publishes
// before opening the gate — is done. Node accumulators need no parity at
// all: each is folded under its own node's lock, which is the only lock a
// combining tree takes and is taken only where bytes are folded, and they
// are quiescently empty (every fold consumed) whenever the root completes.
type Reducer struct {
	op     Op
	ident  []byte
	stride int
	p      int
	cells  [2][]byte  // p*stride each; deposit slots, owner-written
	nodes  []foldNode // per-node lock and arrival count
	acc    []byte     // nodes*stride; each node's under its foldNode's lock
	res    [2][]byte  // width each; releaser-written, parity-stable across Resize
}

// foldNode is one tree node's fold lock and the count of arrivals folded
// under it this episode, on a cache line of its own. On a greedy barrier
// the count is the node's arrival counter: the lock a fold needs anyway
// also decides who completed the fan-in, so a visit costs one lock round
// trip and no further atomic.
type foldNode struct {
	mu sync.Mutex
	n  int32
	_  [CacheLine - 12]byte
}

// Both lines compile only when a foldNode is exactly one cache line.
const (
	_ = CacheLine - unsafe.Sizeof(foldNode{})
	_ = unsafe.Sizeof(foldNode{}) - CacheLine
)

// NewReducer builds a reducer for p participants over a tree of nodes
// counters. It panics on an invalid op — collective configuration is a
// construction-time contract, like a bad tree degree.
func NewReducer(op Op, p, nodes int) *Reducer {
	if err := op.Validate(); err != nil {
		panic(err.Error())
	}
	r := &Reducer{op: op, ident: op.identity(), stride: cellStride(op.Width)}
	r.res[0] = make([]byte, op.Width)
	r.res[1] = make([]byte, op.Width)
	r.alloc(p, nodes)
	return r
}

func (r *Reducer) alloc(p, nodes int) {
	r.p = p
	r.cells[0] = make([]byte, p*r.stride)
	r.cells[1] = make([]byte, p*r.stride)
	r.nodes = make([]foldNode, nodes)
	r.acc = make([]byte, nodes*r.stride)
}

// Op returns the configured operator.
func (r *Reducer) Op() Op { return r.op }

// Width returns the contribution size in bytes.
func (r *Reducer) Width() int { return r.op.Width }

// Identity returns the op's identity element. Callers must not mutate it.
func (r *Reducer) Identity() []byte { return r.ident }

// cell returns participant id's deposit cell for the given parity.
func (r *Reducer) cell(parity uint64, id int) []byte {
	off := id * r.stride
	return r.cells[parity&1][off : off+r.op.Width]
}

// Deposit stores participant id's contribution for the episode with the
// given parity. Must be called by the owning participant before it
// contributes to the episode's completion, exactly like Recorder.Arrive.
func (r *Reducer) Deposit(parity uint64, id int, src []byte) {
	if len(src) != r.op.Width {
		panic(fmt.Sprintf("runtime: contribution is %d bytes, op %q wants %d", len(src), r.op.Name, r.op.Width))
	}
	copy(r.cell(parity, id), src)
}

// DepositIdentity deposits the op's identity for id — the contribution of
// a member that departs (or abstains) mid-episode.
func (r *Reducer) DepositIdentity(parity uint64, id int) {
	copy(r.cell(parity, id), r.ident)
}

// FoldNode counts one arrival at node and folds src into the node's
// accumulator under the node's lock; a nil src folds the identity (a plain
// arrival on a greedy barrier, which counts through the same node so that
// a mixed episode still completes). When the arrival completes fanIn it
// consumes the accumulator and returns it as the carry for the parent. The
// carry stays valid after unlock because nobody can fold into this node
// again before the episode's release, and the carry is folded onward
// before that.
func (r *Reducer) FoldNode(node int, src []byte, fanIn int32) (carry []byte, last bool) {
	if src == nil {
		src = r.ident
	}
	off := node * r.stride
	dst := r.acc[off : off+r.op.Width]
	nd := &r.nodes[node]
	nd.mu.Lock()
	if nd.n == 0 {
		copy(dst, src)
	} else {
		r.op.Fold(dst, src)
	}
	nd.n++
	if last = nd.n == fanIn; last {
		nd.n = 0
	}
	nd.mu.Unlock()
	return dst, last
}

// FinishCells folds the first n deposit cells in ascending id order into
// the episode's result slot and returns it — the deterministic path for
// non-commutative ops. Releaser-only, before the episode's release.
func (r *Reducer) FinishCells(parity uint64, n int) []byte {
	dst := r.res[parity&1]
	copy(dst, r.cell(parity, 0))
	for id := 1; id < n; id++ {
		r.op.Fold(dst, r.cell(parity, id))
	}
	return dst
}

// PublishCarry publishes the greedy path's root carry as the episode's
// result. Releaser-only, before the episode's release.
func (r *Reducer) PublishCarry(parity uint64, carry []byte) {
	copy(r.res[parity&1], carry)
}

// PublishCell publishes participant id's deposit cell as the episode's
// result — the broadcast path. Releaser-only, before the release.
func (r *Reducer) PublishCell(parity uint64, id int) {
	copy(r.res[parity&1], r.cell(parity, id))
}

// Result returns the published result for the episode with the given
// parity. Valid from the episode's release until its parity buffer is
// republished two episodes later; see the type comment for why every
// participant that contributed to the episode reads it in time.
func (r *Reducer) Result(parity uint64) []byte { return r.res[parity&1] }

// CopyResult copies the published result into dst.
func (r *Reducer) CopyResult(parity uint64, dst []byte) {
	copy(dst, r.res[parity&1])
}

// Resize re-buffers the deposit cells and node accumulators for a new
// epoch. Like Recorder.Resize it must run at the quiescent release point:
// no deposit of the next episode can precede the current release, and the
// accumulators are quiescently empty there. The result buffers are
// deliberately kept — a slow awaiter of the pre-rebuild episode still
// copies its result from the same backing array.
func (r *Reducer) Resize(p, nodes int) {
	if r == nil || (p == r.p && nodes == len(r.nodes)) {
		return
	}
	r.alloc(p, nodes)
}

// Reset clears the node accumulators after a poisoned episode, so a
// Reset barrier starts from empty folds. Quiescent-only, like the
// barrier-side clear it is called from.
func (r *Reducer) Reset() {
	for i := range r.nodes {
		r.nodes[i].n = 0
	}
}

// LagEstimator maintains a per-participant EWMA of arrival lag — how far
// behind the episode's first arrival each participant reached the barrier
// — the measured signal behind the σ-aware reduction placement: rank
// participants by this estimate and put the laggiest nearest the root so
// their contributions fold last. Observe is releaser-only; Lags may be
// read from any goroutine.
type LagEstimator struct {
	mu     sync.Mutex
	weight float64
	lags   []float64
	n      uint64
}

// NewLagEstimator returns an estimator for p participants; weight is the
// EWMA weight of the newest episode (0 selects DefaultSigmaWeight).
func NewLagEstimator(p int, weight float64) *LagEstimator {
	if weight <= 0 || weight > 1 {
		weight = DefaultSigmaWeight
	}
	return &LagEstimator{weight: weight, lags: make([]float64, p)}
}

// Observe folds one episode's arrival times (any base — the minimum is
// subtracted) into the per-participant lag estimates. A length change
// re-seeds the estimator at the new membership.
func (e *LagEstimator) Observe(arrivals []float64) {
	if len(arrivals) == 0 {
		return
	}
	first := arrivals[0]
	for _, a := range arrivals[1:] {
		if a < first {
			first = a
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(arrivals) != len(e.lags) {
		e.lags = make([]float64, len(arrivals))
		e.n = 0
	}
	if e.n == 0 {
		for i, a := range arrivals {
			e.lags[i] = a - first
		}
	} else {
		w := e.weight
		for i, a := range arrivals {
			e.lags[i] += w * ((a - first) - e.lags[i])
		}
	}
	e.n++
}

// Lags returns a snapshot of the per-participant lag estimates, seconds.
func (e *LagEstimator) Lags() []float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]float64, len(e.lags))
	copy(out, e.lags)
	return out
}

// Episodes returns how many episodes the estimate is based on.
func (e *LagEstimator) Episodes() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.n
}

// FoldLags feeds the episode's recorded arrival timestamps into est. Like
// Measure it is releaser-only and must run before the episode's release,
// while the parity buffer is quiescent. A nil recorder is a no-op, as is
// an episode that was not measured.
func (r *Recorder) FoldLags(episode uint64, est *LagEstimator) {
	if r == nil || est == nil || episode < r.armed {
		return
	}
	slots := r.arrivals[episode&1]
	arr := make([]float64, len(slots))
	for i := range slots {
		arr[i] = float64(slots[i].V) * 1e-9
	}
	est.Observe(arr)
}
