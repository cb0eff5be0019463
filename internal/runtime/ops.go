package runtime

import (
	"encoding/binary"
	"math"
	"reflect"
)

// kernel names a built-in op's fold on the uint64 its eight big-endian
// bytes encode. Each built-in op's byte Fold is its kernel applied to
// decoded words, and a Reducer whose op folds with one of them folds words
// in a register instead (the word path). noKernel is every other op: the
// byte path, through Op.Fold.
type kernel uint8

const (
	noKernel kernel = iota
	kernSumU64
	kernMinU64
	kernMaxU64
	kernXorU64
	kernSumF64
	numKernels
)

// fold is the definition of every kernel: a ∘ b on decoded words.
func (k kernel) fold(a, b uint64) uint64 {
	switch k {
	case kernSumU64:
		return a + b
	case kernMinU64:
		return min(a, b)
	case kernMaxU64:
		return max(a, b)
	case kernXorU64:
		return a ^ b
	}
	// kernSumF64; noKernel never reaches here.
	return math.Float64bits(math.Float64frombits(a) + math.Float64frombits(b))
}

// foldBytes is k over big-endian bytes: dst = dst ∘ src.
func (k kernel) foldBytes(dst, src []byte) {
	binary.BigEndian.PutUint64(dst, k.fold(binary.BigEndian.Uint64(dst), binary.BigEndian.Uint64(src)))
}

// The built-in ops' Fold functions. Each is a distinct function so that
// kernelOf can tell them apart by code.
func foldSumU64(dst, src []byte) { kernSumU64.foldBytes(dst, src) }
func foldMinU64(dst, src []byte) { kernMinU64.foldBytes(dst, src) }
func foldMaxU64(dst, src []byte) { kernMaxU64.foldBytes(dst, src) }
func foldXorU64(dst, src []byte) { kernXorU64.foldBytes(dst, src) }
func foldSumF64(dst, src []byte) { kernSumF64.foldBytes(dst, src) }

var kernelFolds = [numKernels]func(dst, src []byte){
	kernSumU64: foldSumU64,
	kernMinU64: foldMinU64,
	kernMaxU64: foldMaxU64,
	kernXorU64: foldXorU64,
	kernSumF64: foldSumF64,
}

// kernelOf returns the kernel an op folds with, judged by what the op is,
// not what it is called: an 8-byte op whose Fold is a built-in's fold
// function. A user op that reuses a built-in's Name, or a built-in whose
// Fold was replaced, gets noKernel.
func kernelOf(op Op) kernel {
	if op.Width != 8 || op.Fold == nil {
		return noKernel
	}
	pc := reflect.ValueOf(op.Fold).Pointer()
	for k := kernSumU64; k < numKernels; k++ {
		if reflect.ValueOf(kernelFolds[k]).Pointer() == pc {
			return k
		}
	}
	return noKernel
}

// SumUint64 returns uint64 addition (big-endian, wrapping): commutative,
// identity 0.
func SumUint64() Op {
	return Op{Name: "sum-u64", Width: 8, Commutative: true, Fold: foldSumU64}
}

// MinUint64 returns the uint64 minimum: commutative, identity MaxUint64.
func MinUint64() Op {
	ident := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
	return Op{Name: "min-u64", Width: 8, Commutative: true, Identity: ident, Fold: foldMinU64}
}

// MaxUint64 returns the uint64 maximum: commutative, identity 0.
func MaxUint64() Op {
	return Op{Name: "max-u64", Width: 8, Commutative: true, Fold: foldMaxU64}
}

// XorUint64 returns uint64 exclusive-or: commutative, identity 0.
func XorUint64() Op {
	return Op{Name: "xor-u64", Width: 8, Commutative: true, Fold: foldXorU64}
}

// SumFloat64 returns float64 addition over IEEE-754 bits, not Commutative
// (float addition is not associative), so it folds in id order. Identity
// +0.0.
func SumFloat64() Op {
	return Op{Name: "sum-f64", Width: 8, Fold: foldSumF64}
}
