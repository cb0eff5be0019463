package softbarrier

import "sync"

// FoldNode in a comment is not code.
type FoldNode struct {
	mu   sync.Mutex
	cell []byte
}

var doc = "a foldNode in a string is not code"
