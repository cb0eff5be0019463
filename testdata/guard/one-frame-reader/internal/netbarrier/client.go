package netbarrier

import "bufio"

var _ = bufio.NewWriter
