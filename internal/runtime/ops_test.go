package runtime

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// builtins is every built-in op with the kernel it must fold with and
// what its fold must compute, written out apart from the kernels.
var builtins = []struct {
	mk   func() Op
	kern kernel
	spec func(a, b uint64) uint64
}{
	{SumUint64, kernSumU64, func(a, b uint64) uint64 { return a + b }},
	{MinUint64, kernMinU64, func(a, b uint64) uint64 {
		if b < a {
			return b
		}
		return a
	}},
	{MaxUint64, kernMaxU64, func(a, b uint64) uint64 {
		if b > a {
			return b
		}
		return a
	}},
	{XorUint64, kernXorU64, func(a, b uint64) uint64 { return a ^ b }},
	{SumFloat64, kernSumF64, func(a, b uint64) uint64 {
		return math.Float64bits(math.Float64frombits(a) + math.Float64frombits(b))
	}},
}

// byteTwin is op with its Fold hidden behind a closure: the same fold, on
// the byte path.
func byteTwin(op Op) Op {
	fold := op.Fold
	op.Fold = func(dst, src []byte) { fold(dst, src) }
	return op
}

// edgeWords are the values a word kernel could get wrong: zero, the
// unsigned wrap, ±0, NaNs, ±Inf, subnormals and the float extremes.
var edgeWords = []uint64{
	0, 1, 2, math.MaxUint64, math.MaxUint64 - 1, 1 << 63, 1<<63 - 1,
	math.Float64bits(0), math.Float64bits(math.Copysign(0, -1)),
	math.Float64bits(math.NaN()), 0x7ff0000000000001, 0xfff8000000000123,
	math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)),
	1, 0x000fffffffffffff, 0x8000000000000001, math.Float64bits(math.SmallestNonzeroFloat64),
	math.Float64bits(math.MaxFloat64), math.Float64bits(-math.MaxFloat64),
}

// randomWord draws an edge value, a float of ordinary size, or random bits.
func randomWord(rng *rand.Rand) uint64 {
	switch rng.Intn(3) {
	case 0:
		return edgeWords[rng.Intn(len(edgeWords))]
	case 1:
		return math.Float64bits(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20)))
	}
	return rng.Uint64()
}

// TestBuiltinFolds checks each built-in op's Fold, and so the kernel it
// is derived from, against its spec over big-endian operands.
func TestBuiltinFolds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dst, src := make([]byte, 8), make([]byte, 8)
	for _, b := range builtins {
		op := b.mk()
		for i := 0; i < 2000; i++ {
			x, y := randomWord(rng), randomWord(rng)
			binary.BigEndian.PutUint64(dst, x)
			binary.BigEndian.PutUint64(src, y)
			op.Fold(dst, src)
			if got, want := binary.BigEndian.Uint64(dst), b.spec(x, y); got != want {
				t.Fatalf("%s(%#x, %#x) = %#x, want %#x", op.Name, x, y, got, want)
			}
		}
		if op.Identity != nil {
			binary.BigEndian.PutUint64(src, 12345)
			copy(dst, op.Identity)
			op.Fold(dst, src)
			if got := binary.BigEndian.Uint64(dst); got != 12345 {
				t.Fatalf("%s: identity ∘ 12345 = %d", op.Name, got)
			}
		}
	}
}

func TestKernelChosenByFoldNotName(t *testing.T) {
	for _, b := range builtins {
		op := b.mk()
		if got := kernelOf(op); got != b.kern {
			t.Errorf("%s: kernel %d, want %d", op.Name, got, b.kern)
		}
		// The same fold under another name is the same kernel.
		renamed := op
		renamed.Name = "user"
		if got := kernelOf(renamed); got != b.kern {
			t.Errorf("%s renamed: kernel %d, want %d", op.Name, got, b.kern)
		}
		if got := kernelOf(byteTwin(op)); got != noKernel {
			t.Errorf("%s with its Fold replaced: kernel %d, want the byte path", op.Name, got)
		}
		wide := op
		wide.Width, wide.Identity = 16, nil
		if got := kernelOf(wide); got != noKernel {
			t.Errorf("%s at width 16: kernel %d, want the byte path", op.Name, got)
		}
	}
	// A user op that reuses a built-in's name with its own fold.
	impostor := Op{Name: "sum-u64", Width: 8, Commutative: true, Fold: func(dst, src []byte) {
		binary.BigEndian.PutUint64(dst, binary.BigEndian.Uint64(dst)-binary.BigEndian.Uint64(src))
	}}
	if got := kernelOf(impostor); got != noKernel {
		t.Errorf("user op named sum-u64: kernel %d, want the byte path", got)
	}
	if r := NewReducer(sumOp(), 2, 2); r.kern != noKernel {
		t.Errorf("test sumOp took kernel %d, want the byte path", r.kern)
	}
}

// TestReducerWordPathMatchesBytePath drives a word-path Reducer and its
// byte-path twin through the same puts, deposits, folds and publishes,
// and requires the same bytes out of every one. The ascent's fold runs on
// a commutative copy of each op, the only kind with input cells, and the
// id-order fold on a non-commutative copy, the only kind that deposits
// every participant's contribution.
func TestReducerWordPathMatchesBytePath(t *testing.T) {
	const p, inputs, rounds = 9, 12, 300
	rng := rand.New(rand.NewSource(1))
	for _, b := range builtins {
		op := b.mk()
		folded, ordered := op, op
		folded.Commutative, ordered.Commutative = true, false
		word, ref := NewReducer(folded, p, inputs), NewReducer(byteTwin(folded), p, inputs)
		wordIO, refIO := NewReducer(ordered, p, inputs), NewReducer(byteTwin(ordered), p, inputs)
		if word.kern != b.kern || ref.kern != noKernel || wordIO.kern != b.kern || refIO.kern != noKernel {
			t.Fatalf("%s: kernels %d, %d, %d and %d", op.Name, word.kern, ref.kern, wordIO.kern, refIO.kern)
		}
		buf, got, want := make([]byte, 8), make([]byte, 8), make([]byte, 8)
		check := func(what string, parity uint64, word, ref *Reducer) {
			t.Helper()
			if !bytes.Equal(word.Result(parity), ref.Result(parity)) {
				t.Fatalf("%s %s: word path %x, byte path %x", op.Name, what, word.Result(parity), ref.Result(parity))
			}
			word.CopyResult(parity, got)
			ref.CopyResult(parity, want)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s %s: CopyResult %x, byte path %x", op.Name, what, got, want)
			}
		}
		for round := 0; round < rounds; round++ {
			parity := uint64(round)
			for in := 0; in < inputs; in++ {
				var src []byte // nil: the identity
				if rng.Intn(5) != 0 {
					binary.BigEndian.PutUint64(buf, randomWord(rng))
					src = buf
				}
				word.Put(in, src)
				ref.Put(in, src)
			}
			for id := 0; id < p; id++ {
				binary.BigEndian.PutUint64(buf, randomWord(rng))
				wordIO.Deposit(parity, id, buf)
				refIO.Deposit(parity, id, buf)
			}
			// Two nodes of random fan-in fold into a root, which folds
			// into the output cell.
			n0 := 1 + rng.Intn(inputs-3)
			n1 := 1 + rng.Intn(inputs-2-n0)
			for _, r := range []*Reducer{word, ref} {
				r.FoldInputs(0, n0, inputs-2)
				r.FoldInputs(n0, n1, inputs-1)
				r.FoldInputs(inputs-2, 2, inputs)
				r.PublishOutput(parity)
			}
			check("ascent", parity, word, ref)
			n := 1 + rng.Intn(p)
			if w, r := wordIO.FinishCells(parity, n), refIO.FinishCells(parity, n); !bytes.Equal(w, r) {
				t.Fatalf("%s id order over %d: word path %x, byte path %x", op.Name, n, w, r)
			}
			check("id order", parity, wordIO, refIO)
			id := rng.Intn(p)
			wordIO.PublishCell(parity, id)
			refIO.PublishCell(parity, id)
			check("broadcast", parity, wordIO, refIO)
			// A commutative op's one deposit cell, a broadcast's.
			binary.BigEndian.PutUint64(buf, randomWord(rng))
			word.Deposit(parity, 0, buf)
			ref.Deposit(parity, 0, buf)
			word.PublishCell(parity, 0)
			ref.PublishCell(parity, 0)
			check("commutative broadcast", parity, word, ref)
		}
	}
}
