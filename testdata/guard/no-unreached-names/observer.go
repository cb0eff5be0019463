package softbarrier

type AggregateSummary struct{ Epoch, Adaptations uint64 }
