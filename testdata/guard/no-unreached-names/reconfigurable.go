package softbarrier

// Adaptations in a comment is no field: the epoch is the rebuild count.
type ReconfigStats struct{ Epochs, Rebuilds uint64 }

func (b *ReconfigurableBarrier) Adaptations() uint64 { return b.epoch }

type ReconfigurableBarrier struct{ epoch uint64 }
