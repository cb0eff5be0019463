package runtime

type SigmaEstimator struct{ weight float64 }
