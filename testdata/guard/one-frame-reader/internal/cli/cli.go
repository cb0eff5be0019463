package cli

import "bufio"

var _ = bufio.NewReader
