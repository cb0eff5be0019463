package netbarrier

type Release struct {
	Epoch  uint64
	Degree int
	Sigma  float64
}

type Client struct {
	epoch  uint64
	degree int
	sigma  float64
}
