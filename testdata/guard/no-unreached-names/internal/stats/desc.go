package stats

// Mean and StdDev of a sample stay: the ban covers the distributions.
func Mean(xs []float64) float64 { return 0 }

func StdDev(xs []float64) float64 { return 0 }
