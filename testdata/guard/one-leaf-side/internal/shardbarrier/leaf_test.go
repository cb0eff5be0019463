package shardbarrier

const MaxP = 64
