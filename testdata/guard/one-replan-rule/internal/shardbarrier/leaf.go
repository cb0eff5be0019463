package shardbarrier

import "softbarrier"

var flat = softbarrier.NewCombiningTree(8, 4)
