package netbarrier

type server struct{ relScratch []byte }
