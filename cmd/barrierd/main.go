// Command barrierd is the networked barrier coordination daemon: clients
// connect over TCP, join named sessions, and synchronize episode by
// episode against a server-side combining tree whose degree tracks the
// measured arrival spread σ (internal/netbarrier).
//
// Usage:
//
//	barrierd [-listen 127.0.0.1:7643] [-watchdog 10s] [-replan 10]
//	         [-elastic] [-tc SECONDS] [-sigma SECONDS]
//	         [-collective OP] [-placement POLICY]
//	         [-role standalone|root|leaf] [-root ADDR]
//	         [-shards N] [-shard-id I]
//	         [-keepalive 15s] [-dial-timeout 5s]
//	         [-dial-attempts 3] [-dial-backoff 100ms]
//
// The last four tune the wire transport: -keepalive is the TCP
// keepalive probe period armed on every accepted and dialed connection
// (0 keeps the 15s default, negative disables probing), and the -dial-*
// trio bounds each leaf→root connection attempt and the doubling
// backoff-retry loop around it during fleet bringup.
//
// With -elastic, session membership may change between episodes: joins
// against a full session are parked and admitted at the next episode
// boundary, and a Leave shrinks the cohort at the next boundary instead
// of retiring the session only when everyone has left.
//
// With -placement, each session runs a predictive straggler-placement
// policy (reactive, ewma, trend, ewma-hys): the server observes every
// episode's arrival lags and, on the -replan cadence, rebuilds the
// session's combining tree with predicted stragglers in the shallowest
// slots. Placed sessions use MCS-shaped trees, whose depth diversity is
// what placement exploits. For consistently slow clients use -placement
// reactive: it is the paper's dynamic placement generalized to a full
// ranking, on a tree that survives re-plans.
//
// With -collective, every session is an AllReduce: arrivals may carry
// contributions (clients use ArriveReduce/AllReduce), releases carry the
// folded result, and payload-less arrivals contribute the op's identity.
// OP names a built-in softbarrier op — sum-u64, min-u64, max-u64,
// xor-u64, or sum-f64 — and clients must agree on it out-of-band (ops
// are code; only their names travel).
//
// # Hierarchical deployment
//
// One barrierd caps out at one accept loop and one process's fan-out; a
// fleet splits the population across leaf shards that each combine their
// local clients and synchronize through a root (internal/shardbarrier):
//
//	barrierd -role root -listen 10.0.0.1:7643
//	barrierd -role leaf -root 10.0.0.1:7643 -shards 4 -shard-id 0 -listen :7643
//	barrierd -role leaf -root 10.0.0.1:7643 -shards 4 -shard-id 1 -listen :7643
//	...
//
// A root is an ordinary barrierd that leaves join with shard frames;
// -role root exists for operational clarity, not a different server.
// Every leaf of one fleet uses a distinct -shard-id in [0, -shards) —
// the shard id pins the leaf's slot in the root's deterministic
// ascending-id fold, keeping non-commutative collectives bit-identical
// fleet-wide. Leaves and root must agree on -collective (and should
// agree on the planner flags); clients connect to any leaf and use the
// leaf-local participant count for their session. Mixed protocol
// revisions fail fast: every handshake carries a version byte, and a
// mismatch is refused with an error naming both versions.
//
// The daemon serves until SIGINT or SIGTERM, then poisons every live
// session (members receive a "server closed" cause instead of a hang)
// and exits cleanly.
package main

import (
	"errors"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"

	"softbarrier/internal/cli"
	"softbarrier/internal/netbarrier"
	"softbarrier/internal/shardbarrier"
)

func main() {
	nf := cli.AddNetFlags()
	flag.Parse()

	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("barrierd: ")
	opt, err := nf.Options()
	if err != nil {
		log.Fatal(err)
	}
	if err := nf.ValidateRole(); err != nil {
		log.Fatal(err)
	}
	opt.Logf = log.Printf

	ln, err := nf.Transport().Listen(nf.Listen)
	if err != nil {
		log.Fatal(err)
	}

	// The serve/close pair the role selects; a root is an ordinary server
	// (shard frames are part of the base protocol), a leaf wraps one.
	var serve func() error
	var closer interface{ Close() error }
	switch nf.Role {
	case "leaf":
		leaf := shardbarrier.NewLeaf(shardbarrier.LeafOptions{
			Net:          opt,
			Root:         nf.Root,
			Index:        nf.ShardID,
			Shards:       nf.Shards,
			DialTimeout:  nf.DialTimeout,
			DialAttempts: nf.DialAttempts,
			DialBackoff:  nf.DialBackoff,
		})
		serve = func() error { return leaf.Serve(ln) }
		closer = leaf
	default:
		srv := netbarrier.NewServer(opt)
		serve = func() error { return srv.Serve(ln) }
		closer = srv
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sig
		log.Printf("received %v, shutting down", s)
		closer.Close()
	}()

	coll := "none"
	if opt.Op != nil {
		coll = opt.Op.Name
	}
	place := nf.Placement
	if place == "" {
		place = "none"
	}
	role := nf.Role
	if role == "leaf" {
		role = "leaf of " + nf.Root
	}
	log.Printf("listening on %s as %s (watchdog %v, replan every %d episodes, elastic %v, collective %s, placement %s)",
		ln.Addr(), role, opt.Watchdog, opt.ReplanEvery, opt.Elastic, coll, place)
	if err := serve(); err != nil && !errors.Is(err, netbarrier.ErrServerClosed) {
		log.Fatal(err)
	}
}
