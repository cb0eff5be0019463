package shardbarrier

var ring = NewRing()
