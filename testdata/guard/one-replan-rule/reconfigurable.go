package softbarrier

import (
	locks "sync"
	"sync/atomic"
)

type ReconfigurableBarrier struct {
	mu     locks.Mutex
	degree atomic.Int32
}
