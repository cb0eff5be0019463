// Package ksr models the timing-relevant properties of the Kendall Square
// Research KSR1, the machine used for the paper's §7 measurements, to the
// extent the barrier experiments depend on them:
//
//   - the ALLCACHE memory hierarchy's access latencies (local subcache,
//     remote access within a ring:0 of 32 processors, and inter-ring
//     access through ring:1);
//   - the 128-byte cache sub-line (16 eight-byte elements), which sets the
//     number of communication events of the SOR workload;
//   - the ring-of-rings processor organization, which constrains
//     combining-tree construction and dynamic placement (§7 footnote 5);
//   - the measured counter update time t_c = 20µs.
//
// We do not have a KSR1; this model is the documented substitution
// (DESIGN.md §2). The latency constants are order-of-magnitude figures for
// a 20 MHz KSR1 chosen so that the derived quantities the paper reports —
// t_c, the SOR iteration time (≈9.5 ms at d_y = 210) and its standard
// deviation (≈110 µs) — come out at the measured values.
package ksr

import "softbarrier/internal/topology"

// Machine-architecture constants.
const (
	// SubLine is the number of 8-byte elements per 128-byte cache
	// sub-line, the granularity of remote transfers.
	SubLine = 16
	// RingSize is the number of processor slots in a ring:0.
	RingSize = 32
)

// Machine is a KSR1-like machine timing model.
type Machine struct {
	// Rings lists the number of processors used in each ring:0.
	Rings []int
	// LocalAccess is the latency of a local (subcache) access, seconds.
	LocalAccess float64
	// RingAccess is the latency of a remote access served within the
	// requester's ring:0.
	RingAccess float64
	// InterRingAccess is the latency of an access crossing ring:1.
	InterRingAccess float64
	// Tc is the measured counter update time (lock, update, unlock).
	Tc float64
	// ComputePerElement is the per-element cost of the SOR stencil.
	ComputePerElement float64
}

// New56 returns the configuration of the paper's measurements: 56 of 64
// processors (two rings of 28, avoiding the dedicated I/O nodes), t_c =
// 20µs.
func New56() Machine {
	return Machine{
		Rings:             []int{28, 28},
		LocalAccess:       1e-6,
		RingAccess:        8.75e-6,
		InterRingAccess:   30e-6,
		Tc:                20e-6,
		ComputePerElement: 0.65e-6,
	}
}

// P returns the total number of processors.
func (m Machine) P() int {
	p := 0
	for _, r := range m.Rings {
		p += r
	}
	return p
}

// Tree builds the degree-d combining tree the paper uses on this machine:
// one subtree per ring merged by an additional root level, so that dynamic
// placement never crosses ring boundaries. With degree 16 and two rings of
// 28 this gives an initial tree depth of three, as footnote 5 reports.
func (m Machine) Tree(d int) *topology.Tree {
	return topology.NewRing(m.Rings, d)
}

// SubLines returns the number of sub-line transfers needed to move n
// elements: ceil(n / SubLine).
func SubLines(n int) int {
	if n < 0 {
		panic("ksr: negative element count")
	}
	return (n + SubLine - 1) / SubLine
}
