package shardbarrier

import "time"

type LeafOptions struct {
	DialAttempts int
	DialBackoff  time.Duration
	JoinTimeout  time.Duration
	MaxPending   int
}
