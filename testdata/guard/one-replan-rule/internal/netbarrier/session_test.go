package netbarrier

import "softbarrier"

var reference = softbarrier.NewDynamic(8, 4)
