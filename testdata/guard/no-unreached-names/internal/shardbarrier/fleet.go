package shardbarrier

import "softbarrier/internal/topology"

const DefaultVnodes = 64

type Ring struct{ tree *topology.Ring }

func NewRing() *Ring { return nil }

func SessionSlot(name string) int { return 0 }

func (f *Fleet) LeafAddr(i int) string { return f.LeafAddrs()[i] }

func (f *Fleet) LeafAddrs() []string { return nil }

type Fleet struct{}

type FleetOptions struct{ RootNet *int }
