package runtime

import (
	"bytes"
	"encoding/binary"
	"testing"
)

func sumOp() Op {
	return Op{
		Name: "sum-u64", Width: 8, Commutative: true,
		Fold: func(dst, src []byte) {
			binary.BigEndian.PutUint64(dst, binary.BigEndian.Uint64(dst)+binary.BigEndian.Uint64(src))
		},
	}
}

// concatFirstByte is a deliberately non-commutative op over 4 bytes:
// dst = dst<<8 | src[3] (keeps the last byte of each operand in order).
func shiftOp() Op {
	return Op{
		Name: "shift", Width: 4,
		Fold: func(dst, src []byte) {
			v := binary.BigEndian.Uint32(dst)<<8 | uint32(src[3])
			binary.BigEndian.PutUint32(dst, v)
		},
	}
}

func TestOpValidate(t *testing.T) {
	if err := (Op{Width: 8, Fold: func(dst, src []byte) {}}).Validate(); err != nil {
		t.Fatalf("valid op rejected: %v", err)
	}
	bad := []Op{
		{Width: 0, Fold: func(dst, src []byte) {}},
		{Width: -1, Fold: func(dst, src []byte) {}},
		{Width: 8},
		{Width: 8, Fold: func(dst, src []byte) {}, Identity: make([]byte, 4)},
	}
	for i, op := range bad {
		if err := op.Validate(); err == nil {
			t.Errorf("bad op %d validated", i)
		}
	}
}

func TestReducerGreedyPath(t *testing.T) {
	// Two leaves of fan-in 2 (inputs 0–1 and 2–3) under a root of fan-in 2
	// (inputs 4–5); output cell 6. Each leaf's completer folds into its
	// input at the root, and the root's into the output cell.
	r := NewReducer(shiftOp(), 4, 6)
	put := func(in int, b byte) { r.Put(in, []byte{0, 0, 0, b}) }
	put(3, 0xd)
	put(1, 0xb)
	put(0, 0xa)
	put(2, 0xc)
	r.FoldInputs(2, 2, 5)
	r.FoldInputs(0, 2, 4)
	r.FoldInputs(4, 2, 6)
	r.PublishOutput(0)
	// Input order, not put or fold order: (a·b)·(c·d), where the root's
	// fold keeps only the last byte of (c·d).
	if got, want := r.Result(0), []byte{0x00, 0x0a, 0x0b, 0x0d}; !bytes.Equal(got, want) {
		t.Fatalf("tree fold = %x, want %x", got, want)
	}
	// A nil put is the identity: a plain arrival folds in as nothing.
	sum := NewReducer(sumOp(), 3, 3)
	if len(sum.cells[0]) != sum.stride {
		t.Fatalf("commutative reducer has %d deposit words per parity, want one cell of %d", len(sum.cells[0]), sum.stride)
	}
	buf := make([]byte, 8)
	for in, v := range []uint64{10, 0, 3000} {
		binary.BigEndian.PutUint64(buf, v)
		if in == 1 {
			sum.Put(in, nil)
			continue
		}
		sum.Put(in, buf)
	}
	sum.FoldInputs(0, 3, 3)
	sum.PublishOutput(1)
	if got := binary.BigEndian.Uint64(sum.Result(1)); got != 3010 {
		t.Fatalf("fold with an identity input = %d, want 3010", got)
	}
	// Resize to a wider tree keeps the output cell past the inputs.
	sum.Resize(3, 5)
	for in := 0; in < 5; in++ {
		binary.BigEndian.PutUint64(buf, uint64(in+1))
		sum.Put(in, buf)
	}
	sum.FoldInputs(0, 5, 5)
	sum.PublishOutput(0)
	if got := binary.BigEndian.Uint64(sum.Result(0)); got != 15 {
		t.Fatalf("fold after Resize = %d, want 15", got)
	}
	if got := binary.BigEndian.Uint64(sum.Result(1)); got != 3010 {
		t.Fatalf("odd result clobbered by Resize: %d, want 3010", got)
	}
}

func TestReducerCellsPathDeterministic(t *testing.T) {
	const p = 5
	r := NewReducer(shiftOp(), p, 3)
	// Deposit in a scrambled order; the id-order fold must still equal the
	// sequential fold 0,1,2,3,4.
	for _, id := range []int{3, 0, 4, 1, 2} {
		var c [4]byte
		c[3] = byte(0x10 + id)
		r.Deposit(0, id, c[:])
	}
	res := r.FinishCells(0, p)
	want := []byte{0x11, 0x12, 0x13, 0x14} // 0x10 shifted out of the 4-byte window
	if !bytes.Equal(res, want) {
		t.Fatalf("cells fold = %x, want %x", res, want)
	}
	if got := r.Result(0); !bytes.Equal(got, want) {
		t.Fatalf("Result(0) = %x, want %x", got, want)
	}
}

func TestReducerParityAndResize(t *testing.T) {
	op := sumOp()
	op.Commutative = false // deposited and folded in id order
	r := NewReducer(op, 2, 1)
	buf := make([]byte, 8)
	binary.BigEndian.PutUint64(buf, 41)
	r.Deposit(0, 0, buf)
	binary.BigEndian.PutUint64(buf, 1)
	r.Deposit(0, 1, buf)
	even := r.FinishCells(0, 2)
	if got := binary.BigEndian.Uint64(even); got != 42 {
		t.Fatalf("even episode = %d, want 42", got)
	}
	// Odd-parity episode with different membership after a resize: the
	// even result must survive the rebuffer.
	r.Resize(3, 2)
	for id := 0; id < 3; id++ {
		binary.BigEndian.PutUint64(buf, uint64(id+1))
		r.Deposit(1, id, buf)
	}
	odd := r.FinishCells(1, 3)
	if got := binary.BigEndian.Uint64(odd); got != 6 {
		t.Fatalf("odd episode = %d, want 6", got)
	}
	if got := binary.BigEndian.Uint64(r.Result(0)); got != 42 {
		t.Fatalf("even result clobbered by resize: %d, want 42", got)
	}
	out := make([]byte, 8)
	r.CopyResult(1, out)
	if got := binary.BigEndian.Uint64(out); got != 6 {
		t.Fatalf("CopyResult(1) = %d, want 6", got)
	}
}

func TestReducerIdentity(t *testing.T) {
	op := shiftOp()
	op.Identity = []byte{0, 0, 0, 7} // explicit identity (of a sort)
	r := NewReducer(op, 2, 2)
	r.Put(0, []byte{0, 0, 0, 9})
	r.Put(1, nil)
	r.FoldInputs(0, 2, 2)
	r.PublishOutput(0)
	if got, want := r.Result(0), []byte{0, 0, 9, 7}; !bytes.Equal(got, want) {
		t.Fatalf("fold with a nil put = %x, want %x: the op's Identity", got, want)
	}
}

func TestReducerDepositWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("short deposit did not panic")
		}
	}()
	NewReducer(sumOp(), 1, 1).Deposit(0, 0, []byte{1, 2})
}
