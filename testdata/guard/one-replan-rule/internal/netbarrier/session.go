package netbarrier

import (
	"softbarrier"
	rc "softbarrier/internal/reconfig"
)

// newBarrier builds a tree of its own: "NewDynamic" in a string is no call.
func newBarrier(p, d int) softbarrier.Barrier {
	rc.Replan(p)
	if d == 0 {
		return softbarrier.NewDynamic(p, 4)
	}
	if d < 0 {
		return softbarrier.NewMCSTree(p, -d)
	}
	return softbarrier.NewCombiningTree(p, d)
}
