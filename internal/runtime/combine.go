package runtime

import (
	"fmt"
	"sync"
)

// Op is an associative combining operator over fixed-width byte strings —
// what turns an arrival-counting tree into a reduction tree. Fold must be
// associative over Width-byte values; Commutative additionally promises
// that operand order does not matter, which lets the barrier fold
// contributions during the ascent (the pre-reduce-early-arrivals policy):
// whoever completes a tree node folds the node's inputs, instead of the
// releaser folding every contribution in id order at the root.
//
// Note the fine print on Commutative: each node folds its inputs in input
// order, so the parenthesization follows the tree and the placement, not
// the arrival order. An op that is commutative but not exactly associative
// (float addition) then gives one result for every arrival order on a
// fixed tree and placement, but not the sequential fold's, and a placement
// swap or an epoch rebuild can change it. Leave Commutative false when the
// result must be the sequential fold's; the id-order fold gives it on
// every tree.
type Op struct {
	// Name identifies the op on the wire and in logs (both sides of a
	// networked session must configure the same op out-of-band).
	Name string
	// Width is the contribution size in bytes; every Deposit and Fold
	// operand is exactly Width bytes.
	Width int
	// Commutative enables folding at each node during the ascent.
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
// adjacent cells never share a line.
func cellStride(width int) int { return (width + CacheLine - 1) &^ (CacheLine - 1) }

// Reducer carries the payload side of a combining-tree episode: padded
// per-participant deposit cells, padded input cells for the fold during
// the ascent, and the published per-episode result. It is the payload twin
// of the Recorder and inherits its memory-safety argument wholesale:
// deposit cells and results are double-buffered by episode parity, a
// participant racing ahead into episode k+1 uses the other buffer, and
// nobody can reach episode k+2 (parity of k) before the episode-k releaser
// — who folds and publishes before opening the gate — is done.
//
// Input cells need no parity and no lock. There is one per tree input
// (each participant at its first counter, each counter at its parent) and
// one output cell past them for the root. A cell is written by the one
// arrival or completer that feeds that input, before the fetch-and-add
// that counts it, and read by the node's completer after its own add,
// which observes the whole chain of adds before it. The next episode's
// write cannot come before the release, which follows every read.
type Reducer struct {
	op     Op
	ident  []byte
	stride int
	p      int
	cells  [2][]byte // p*stride each; deposit slots, owner-written
	in     []byte    // (inputs+1)*stride; input cells, then the output cell
	res    [2][]byte // width each; releaser-written, parity-stable across Resize
}

// NewReducer builds a reducer for p participants over a tree with the
// given number of inputs. It panics on an invalid op — collective
// configuration is a construction-time contract, like a bad tree degree.
func NewReducer(op Op, p, inputs int) *Reducer {
	if err := op.Validate(); err != nil {
		panic(err.Error())
	}
	r := &Reducer{op: op, ident: op.identity(), stride: cellStride(op.Width)}
	r.res[0] = make([]byte, op.Width)
	r.res[1] = make([]byte, op.Width)
	r.alloc(p, inputs)
	return r
}

func (r *Reducer) alloc(p, inputs int) {
	r.p = p
	r.cells[0] = make([]byte, p*r.stride)
	r.cells[1] = make([]byte, p*r.stride)
	r.in = make([]byte, (inputs+1)*r.stride)
}

// Op returns the configured operator.
func (r *Reducer) Op() Op { return r.op }

// Width returns the contribution size in bytes.
func (r *Reducer) Width() int { return r.op.Width }

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

// input returns input cell i; the cell after the last input is the output.
func (r *Reducer) input(i int) []byte {
	off := i * r.stride
	return r.in[off : off+r.op.Width]
}

// Put writes src into input cell in; nil writes the identity (a plain
// arrival on a folding barrier). The writer must put before the add that
// counts the input.
func (r *Reducer) Put(in int, src []byte) {
	if src == nil {
		src = r.ident
	}
	copy(r.input(in), src)
}

// FoldInputs folds input cells first … first+n−1, in that order, into
// cell out: a node's inputs into its own input at the parent, or at the
// root into the output cell. Only the add that completed the node may
// call it, and before the add at the parent.
func (r *Reducer) FoldInputs(first, n, out int) {
	dst := r.input(out)
	copy(dst, r.input(first))
	for i := first + 1; i < first+n; i++ {
		r.op.Fold(dst, r.input(i))
	}
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

// PublishOutput publishes the output cell, where the root's completer
// folded, as the episode's result. Releaser-only, before the release.
func (r *Reducer) PublishOutput(parity uint64) {
	copy(r.res[parity&1], r.input(len(r.in)/r.stride-1))
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

// Resize re-buffers the deposit and input cells for a new epoch. Like
// Recorder.Resize it must run at the quiescent release point: no write of
// the next episode can precede the current release. The result buffers are
// deliberately kept — a slow awaiter of the pre-rebuild episode still
// copies its result from the same backing array.
func (r *Reducer) Resize(p, inputs int) {
	if r == nil || (p == r.p && len(r.in) == (inputs+1)*r.stride) {
		return
	}
	r.alloc(p, inputs)
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
