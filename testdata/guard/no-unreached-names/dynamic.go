package softbarrier

type DynamicBarrier struct{}

func (b *DynamicBarrier) FirstCounterOf(id int) int { return id }
