package ksr

import (
	"fmt"
	"testing"
)

func TestNew56Shape(t *testing.T) {
	m := New56()
	if m.P() != 56 {
		t.Fatalf("P = %d, want 56", m.P())
	}
	if len(m.Rings) != 2 || m.Rings[0] != 28 || m.Rings[1] != 28 {
		t.Fatalf("rings %v, want two rings of 28", m.Rings)
	}
	if m.Tc != 20e-6 {
		t.Fatalf("t_c = %v, want 20µs", m.Tc)
	}
}

func TestRingOf(t *testing.T) {
	m := New56()
	if m.RingOf(0) != 0 || m.RingOf(27) != 0 {
		t.Error("first 28 processors should be ring 0")
	}
	if m.RingOf(28) != 1 || m.RingOf(55) != 1 {
		t.Error("last 28 processors should be ring 1")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range processor did not panic")
		}
	}()
	m.RingOf(56)
}

func TestMachineTreeRingConstrained(t *testing.T) {
	m := New56()
	// Footnote 5: degree 16 yields an initial tree depth of three (two
	// ring subtrees merged by an additional level).
	tr := m.Tree(16)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.P != 56 {
		t.Fatalf("tree has %d processors", tr.P)
	}
	if d := tr.Depth(tr.FirstCounter(0)); d != 3 {
		t.Errorf("degree-16 leaf depth %d, want 3", d)
	}
}

func TestSubLines(t *testing.T) {
	cases := []struct{ n, want int }{{0, 0}, {1, 1}, {16, 1}, {17, 2}, {210, 14}, {480, 30}}
	for _, c := range cases {
		if got := SubLines(c.n); got != c.want {
			t.Errorf("SubLines(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative element count did not panic")
		}
	}()
	SubLines(-1)
}

// RingOf returns the ring index of processor p (processors are numbered
// ring by ring). It panics for an out-of-range processor.
func (m Machine) RingOf(p int) int {
	for ring, size := range m.Rings {
		if p < size {
			return ring
		}
		p -= size
	}
	panic(fmt.Sprintf("ksr: processor %d out of range", p))
}
