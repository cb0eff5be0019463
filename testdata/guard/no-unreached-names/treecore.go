package softbarrier

import (
	"softbarrier/internal/loadmodel"
	rt "softbarrier/internal/runtime"
)

// Using what another package declares is legal: only declaring the name is
// banned.
type treeEpoch struct{ loadmodel.Plan }

func (st *treeEpoch) next() loadmodel.Plan { return st.Plan }

func withWaitPolicy(p rt.WaitPolicy) Option { return nil }

var policy = rt.DefaultWaitPolicy()
