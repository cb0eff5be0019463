// Package softbarrier is a library of software synchronization barriers
// for shared-memory parallel programs, reproducing the design space of
// Eichenberger & Abraham, "Impact of Load Imbalance on the Design of
// Software Barriers" (ICPP 1995): who arrives late, and where they sit in
// the tree, decides the delay.
//
// The barriers are CentralBarrier, TreeBarrier (NewCombiningTree,
// NewMCSTree), DynamicBarrier (the paper's victor/victim placement),
// ReconfigurableBarrier (run-time degree re-planning and elastic
// membership), DisseminationBarrier and TournamentBarrier. Every one is
// Abortable and a ContextBarrier; the central and tree barriers are
// PhasedBarriers (fuzzy barriers), and the tree barriers built
// WithCollective are Collectives. OptimalDegree applies the paper's
// analytic model, which a ReconfigurableBarrier re-plans with at run time
// from the spread it measures, and Group runs supersteps over any barrier.
//
// Each mechanism is described once, in DESIGN.md: the analytic model in
// §5.1, dynamic placement in §5.3, poison and the watchdog in §5.6,
// reconfiguration and telemetry in §5.8, the shared tree core and its
// collectives in §5.9, and predictive placement in §5.10.
//
// These barriers are real concurrent data structures, but Go's scheduler
// hides the per-processor placement the paper measures, so the
// quantitative reproduction runs on the simulator behind cmd/experiments
// (DESIGN.md §2).
package softbarrier
