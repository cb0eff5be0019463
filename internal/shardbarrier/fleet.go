package shardbarrier

import (
	"fmt"

	"softbarrier/internal/netbarrier"
	"softbarrier/internal/wire"
)

// FleetOptions configures StartFleet.
type FleetOptions struct {
	// Leaves is how many leaf shards to start. 0 selects 2. Every leaf
	// joins the root for every session.
	Leaves int
	// Net configures every leaf's local server (op, watchdog, planner
	// knobs). The root runs the same options minus Upstream.
	Net netbarrier.Options
	// RootNet, when non-nil, overrides the root server's options.
	RootNet *netbarrier.Options
	// Transport is the network the whole fleet runs over — the root and
	// leaf listeners, and the leaf→root links. Nil selects Net.Transport,
	// then loopback TCP; an in-process fleet (tests, chaos runs) passes a
	// memnet or a chaos wrapper and every hop follows.
	Transport wire.Transport
	// Bind is the listen address pattern for the root and every leaf;
	// empty selects "127.0.0.1:0" (ephemeral loopback ports). A memnet
	// fleet passes "mem:0" so its addresses carry the mem: scheme.
	Bind string
}

func (o *FleetOptions) transport() wire.Transport {
	if o.Transport != nil {
		return o.Transport
	}
	if o.Net.Transport != nil {
		return o.Net.Transport
	}
	return wire.DefaultTCP
}

// Fleet is an in-process hierarchical deployment — one root barrierd and
// N leaf shards on loopback listeners — for tests, benchmarks, and
// single-host scale-out. Production fleets run the same wiring across
// processes via plain `barrierd` (the root) and `barrierd -root ADDR` (each leaf).
type Fleet struct {
	Root   *netbarrier.Server
	Leaves []*Leaf

	rootAddr  string
	leafAddrs []string
}

// StartFleet launches a root and opt.Leaves leaf shards on ephemeral
// loopback ports, fully wired: leaf i knows the root and joins every
// session as shard i of opt.Leaves. Callers route each client to any
// leaf and must Close the fleet when done.
func StartFleet(opt FleetOptions) (*Fleet, error) {
	n := opt.Leaves
	if n <= 0 {
		n = 2
	}
	rootOpt := opt.Net
	if opt.RootNet != nil {
		rootOpt = *opt.RootNet
	}
	rootOpt.Upstream = nil
	tr := opt.transport()
	opt.Net.Transport = tr // every leaf listens and dials through it
	bind := opt.Bind
	if bind == "" {
		bind = "127.0.0.1:0"
	}
	f := &Fleet{Root: netbarrier.NewServer(rootOpt)}
	rootLn, err := tr.Listen(bind)
	if err != nil {
		return nil, err
	}
	f.rootAddr = rootLn.Addr().String()
	go f.Root.Serve(rootLn)

	lns := make([]wire.Listener, n)
	f.leafAddrs = make([]string, n)
	for i := range lns {
		ln, err := tr.Listen(bind)
		if err != nil {
			f.Close()
			return nil, err
		}
		lns[i] = ln
		f.leafAddrs[i] = ln.Addr().String()
	}
	for i := 0; i < n; i++ {
		leaf := NewLeaf(LeafOptions{Net: opt.Net, Root: f.rootAddr, Index: i, Shards: n})
		f.Leaves = append(f.Leaves, leaf)
		go leaf.Serve(lns[i])
	}
	return f, nil
}

// RootAddr returns the root's listen address.
func (f *Fleet) RootAddr() string { return f.rootAddr }

// LeafAddrs returns every leaf's listen address, in shard-index order.
func (f *Fleet) LeafAddrs() []string { return append([]string(nil), f.leafAddrs...) }

// Close shuts the fleet down, leaves first (so their sessions poison
// with leaf-side causes rather than root disconnects), then the root.
func (f *Fleet) Close() error {
	var first error
	for _, leaf := range f.Leaves {
		if err := leaf.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := f.Root.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// String describes the fleet topology.
func (f *Fleet) String() string {
	return fmt.Sprintf("fleet{root %s, %d leaves}", f.rootAddr, len(f.Leaves))
}
