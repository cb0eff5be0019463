package softbarrier

type options struct{ wakeFlag bool }

func WithTreeWakeup() options { return options{wakeFlag: true} }

func (o options) awaitWake() {}

type LagEstimator struct{}

func (e *LagEstimator) FoldLags(lags []float64) {}

func HierarchicalGather() {}
