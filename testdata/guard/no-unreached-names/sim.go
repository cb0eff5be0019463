package softbarrier

func NewInterconnect()     {}
func HeavyTailArrivals()   {}
func HistoryNoise()        {}
func ChunkSkew()           {}
func ExpectedIdleTime()    {}
func Summarize()           {}
func NewHistogramBuckets() {}
