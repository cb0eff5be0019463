package runtime

import (
	"encoding/binary"
	"fmt"
	"unsafe"
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

// CacheLine is the line size hot per-node and per-participant state is
// padded to.
const CacheLine = 64

// cellStride rounds a contribution width up to a cache-line multiple so
// adjacent cells never share a line.
func cellStride(width int) int { return (width + CacheLine - 1) &^ (CacheLine - 1) }

// Reducer carries the payload side of a combining-tree episode: padded
// per-participant deposit cells, padded input cells for the fold during
// the ascent, and the published per-episode result. It is the payload
// twin of the Recorder and inherits its memory-safety argument wholesale:
// deposit cells and results are double-buffered by episode parity, a
// participant racing ahead into episode k+1 uses the other buffer, and
// nobody can reach episode k+2 (parity of k) before the episode-k releaser
// — who folds and publishes before opening the gate — is done.
//
// A broadcast goes through deposit cell 0. A commutative op reduces
// through the input cells alone, so that is its only deposit, and its
// reducer has one deposit cell per parity instead of one per participant.
//
// Input cells need no parity and no lock. A commutative op has one per
// tree input (each participant at its first counter, each counter at its
// parent) and one output cell past them for the root; any other op has
// none, since only the fold during the ascent reads them. A cell is written by the one
// arrival or completer that feeds that input, before the fetch-and-add
// that counts it, and read by the node's completer after its own add,
// which observes the whole chain of adds before it. The next episode's
// write cannot come before the release, which follows every read.
//
// An op that folds with a built-in kernel (kernelOf) takes the word path:
// a cell's first word holds the contribution decoded from big-endian, a
// move is one 8-byte load and store, and a fold runs in a register; the
// result is encoded back to bytes when it is published. Every other op
// takes the byte path, which views a cell's words as bytes and folds
// through Op.Fold; it is also the reference the word path is tested
// against.
type Reducer struct {
	op     Op
	ident  []byte
	kern   kernel // noKernel: the byte path
	stride int    // words per cell
	p      int
	cells  [2][]uint64 // p cells each (1 for a commutative op); deposit slots, owner-written
	in     []uint64    // inputs+1 cells; input cells, then the output cell
	res    [2][]byte   // width each; releaser-written, parity-stable across Resize
}

// NewReducer builds a reducer for p participants over a tree with the
// given number of inputs. It panics on an invalid op — collective
// configuration is a construction-time contract, like a bad tree degree.
func NewReducer(op Op, p, inputs int) *Reducer {
	if err := op.Validate(); err != nil {
		panic(err.Error())
	}
	r := &Reducer{op: op, ident: op.Identity, kern: kernelOf(op), stride: cellStride(op.Width) / 8}
	// Both result buffers and, when the op has none, the all-zero
	// identity, in one allocation.
	w := op.Width
	bufs := make([]byte, 3*w)
	r.res = [2][]byte{bufs[:w:w], bufs[w : 2*w : 2*w]}
	if r.ident == nil {
		r.ident = bufs[2*w:]
	}
	r.alloc(p, inputs)
	return r
}

// alloc gives the reducer both parity's deposit cells and, for a
// commutative op, whose fold alone reads them, the input cells, in one
// allocation.
func (r *Reducer) alloc(p, inputs int) {
	r.p = p
	n, in := p*r.stride, 0
	if r.op.Commutative {
		n, in = r.stride, (inputs+1)*r.stride
	}
	cells := make([]uint64, 2*n+in)
	r.cells = [2][]uint64{cells[:n:n], cells[n : 2*n : 2*n]}
	r.in = cells[2*n:]
}

// Op returns the configured operator.
func (r *Reducer) Op() Op { return r.op }

// Width returns the contribution size in bytes.
func (r *Reducer) Width() int { return r.op.Width }

// bytesOf is the byte path's view of cell i of cells.
func (r *Reducer) bytesOf(cells []uint64, i int) []byte {
	w := cells[i*r.stride : (i+1)*r.stride]
	return unsafe.Slice((*byte)(unsafe.Pointer(&w[0])), r.op.Width)
}

// Deposit stores participant id's contribution for the episode with the
// given parity. Must be called by the owning participant before it
// contributes to the episode's completion, exactly like Recorder.Arrive.
func (r *Reducer) Deposit(parity uint64, id int, src []byte) {
	if len(src) != r.op.Width {
		panic(fmt.Sprintf("runtime: contribution is %d bytes, op %q wants %d", len(src), r.op.Name, r.op.Width))
	}
	if r.kern != noKernel {
		r.cells[parity&1][id*r.stride] = binary.BigEndian.Uint64(src)
		return
	}
	copy(r.bytesOf(r.cells[parity&1], id), src)
}

// Put writes src into input cell in; nil writes the identity (a plain
// arrival on a folding barrier). The writer must put before the add that
// counts the input.
func (r *Reducer) Put(in int, src []byte) {
	if src == nil {
		src = r.ident
	}
	if r.kern != noKernel {
		r.in[in*r.stride] = binary.BigEndian.Uint64(src)
		return
	}
	copy(r.bytesOf(r.in, in), src)
}

// FoldInputs folds input cells first … first+n−1, in that order, into
// cell out: a node's inputs into its own input at the parent, or at the
// root into the output cell. Only the add that completed the node may
// call it, and before the add at the parent.
func (r *Reducer) FoldInputs(first, n, out int) {
	if r.kern != noKernel {
		r.in[out*r.stride] = r.foldWords(r.in, first, first+n)
		return
	}
	dst := r.bytesOf(r.in, out)
	copy(dst, r.bytesOf(r.in, first))
	for i := first + 1; i < first+n; i++ {
		r.op.Fold(dst, r.bytesOf(r.in, i))
	}
}

// foldWords folds the words of cells from … to−1, in that order, in a
// register.
func (r *Reducer) foldWords(cells []uint64, from, to int) uint64 {
	k, s := r.kern, r.stride
	acc := cells[from*s]
	for i := from + 1; i < to; i++ {
		acc = k.fold(acc, cells[i*s])
	}
	return acc
}

// FinishCells folds the first n deposit cells in ascending id order into
// the episode's result slot and returns it — the deterministic path for
// non-commutative ops. Releaser-only, before the episode's release.
func (r *Reducer) FinishCells(parity uint64, n int) []byte {
	dst, cells := r.res[parity&1], r.cells[parity&1]
	if r.kern != noKernel {
		binary.BigEndian.PutUint64(dst, r.foldWords(cells, 0, n))
		return dst
	}
	copy(dst, r.bytesOf(cells, 0))
	for id := 1; id < n; id++ {
		r.op.Fold(dst, r.bytesOf(cells, id))
	}
	return dst
}

// PublishOutput publishes the output cell, where the root's completer
// folded, as the episode's result. Releaser-only, before the release.
func (r *Reducer) PublishOutput(parity uint64) {
	r.publish(parity, r.in, len(r.in)/r.stride-1)
}

// PublishCell publishes participant id's deposit cell as the episode's
// result — the broadcast path. Releaser-only, before the release.
func (r *Reducer) PublishCell(parity uint64, id int) {
	r.publish(parity, r.cells[parity&1], id)
}

// publish makes cell i of cells the result of the episode with the given
// parity.
func (r *Reducer) publish(parity uint64, cells []uint64, i int) {
	if r.kern != noKernel {
		binary.BigEndian.PutUint64(r.res[parity&1], cells[i*r.stride])
		return
	}
	copy(r.res[parity&1], r.bytesOf(cells, i))
}

// Result returns the published result for the episode with the given
// parity. Valid from the episode's release until its parity buffer is
// republished two episodes later; see the type comment for why every
// participant that contributed to the episode reads it in time.
func (r *Reducer) Result(parity uint64) []byte { return r.res[parity&1] }

// CopyResult copies the published result into dst, which must be Width
// bytes.
func (r *Reducer) CopyResult(parity uint64, dst []byte) {
	if r.kern != noKernel {
		*(*[8]byte)(dst) = [8]byte(r.res[parity&1])
		return
	}
	copy(dst, r.res[parity&1])
}

// Resize re-buffers the deposit and input cells for a new epoch. Like
// Recorder.Resize it must run at the quiescent release point: no write of
// the next episode can precede the current release. The result buffers are
// deliberately kept — a slow awaiter of the pre-rebuild episode still
// copies its result from the same backing array.
func (r *Reducer) Resize(p, inputs int) {
	if r == nil || (p == r.p && (!r.op.Commutative || len(r.in) == (inputs+1)*r.stride)) {
		return
	}
	r.alloc(p, inputs)
}
