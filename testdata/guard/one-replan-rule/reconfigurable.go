package softbarrier

import (
	locks "sync"
	"sync/atomic"
)

type ReconfigurableBarrier struct {
	mu       locks.Mutex
	degree   atomic.Int32
	minDelta int
}

type ReconfigConfig struct{ InitialDegree, MinDegreeDelta int }
