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

func (b *ReconfigurableBarrier) plan(p int) (degree int) { return 2 }
