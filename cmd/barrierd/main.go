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
//	         [-root ADDR [-shards N] [-shard-id I]]
//	         [-keepalive 15s]
//
// -keepalive is the TCP keepalive probe period armed on every accepted
// and dialed connection (0 keeps the 15s default, negative disables
// probing).
//
// With -elastic, client session membership may change between episodes:
// joins against a full session are parked and admitted at the next
// episode boundary, and a Leave shrinks the cohort at the next boundary
// instead of retiring the session only when everyone has left. It applies
// to client sessions only: the inter-shard sessions a root serves keep
// fixed membership, so every leaf keeps the slot its -shard-id names.
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
//	barrierd -listen 10.0.0.1:7643
//	barrierd -root 10.0.0.1:7643 -shards 4 -shard-id 0 -listen :7643
//	barrierd -root 10.0.0.1:7643 -shards 4 -shard-id 1 -listen :7643
//	...
//
// -root ADDR makes a barrierd a leaf of the root at ADDR; without it the
// daemon is a server, and a root is just a server that leaves join with
// shard frames. -shards and -shard-id describe a leaf and are refused
// without -root. Every leaf of one fleet uses a distinct -shard-id in
// [0, -shards) — the shard id pins the leaf's slot in the root's
// deterministic ascending-id fold, keeping non-commutative collectives
// bit-identical fleet-wide. Leaves and root must agree on -collective (and should
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
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"softbarrier/internal/cli"
	"softbarrier/internal/netbarrier"
	"softbarrier/internal/shardbarrier"
	"softbarrier/internal/wire"
)

// deployFlags says where the daemon listens and how it joins a fleet.
type deployFlags struct {
	listen    string
	root      string // the root's address; non-empty makes the daemon a leaf
	shards    int    // leaf shards joining the root per session
	shardID   int    // this leaf's slot in the root's ascending-id fold
	keepAlive time.Duration
}

func addDeployFlags(fs *flag.FlagSet) *deployFlags {
	d := &deployFlags{}
	fs.StringVar(&d.listen, "listen", "127.0.0.1:7643", "TCP listen address")
	fs.StringVar(&d.root, "root", "", "root barrierd address: serve as a leaf shard of that root")
	fs.IntVar(&d.shards, "shards", 1, "leaf shards joining the root per session (needs -root)")
	fs.IntVar(&d.shardID, "shard-id", 0, "this leaf's shard index in [0, -shards) (needs -root)")
	fs.DurationVar(&d.keepAlive, "keepalive", 0, "TCP keepalive probe period (0 = 15s default, negative disables)")
	return d
}

// leaf reports whether the flags fs parsed make the daemon a leaf: it is
// one exactly when -root is given. -shards and -shard-id describe a leaf,
// so setting either without -root is an error rather than ignored.
func (d *deployFlags) leaf(fs *flag.FlagSet) (bool, error) {
	if d.root == "" {
		var stray []string
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "shards" || f.Name == "shard-id" {
				stray = append(stray, "-"+f.Name)
			}
		})
		if len(stray) > 0 {
			return false, fmt.Errorf("%s only applies to a leaf, which needs -root ADDR", strings.Join(stray, ", "))
		}
		return false, nil
	}
	if d.shards < 1 {
		return false, fmt.Errorf("-shards must be ≥ 1, got %d", d.shards)
	}
	if d.shardID < 0 || d.shardID >= d.shards {
		return false, fmt.Errorf("-shard-id %d outside [0, %d)", d.shardID, d.shards)
	}
	return true, nil
}

func main() {
	nf := cli.AddNetFlags(flag.CommandLine)
	df := addDeployFlags(flag.CommandLine)
	flag.Parse()

	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("barrierd: ")
	opt, err := nf.Options()
	if err != nil {
		log.Print(err)
		os.Exit(2) // a bad flag value, as flag.Parse exits on a bad flag
	}
	isLeaf, err := df.leaf(flag.CommandLine)
	if err != nil {
		log.Fatal(err)
	}
	tr := &wire.TCP{KeepAlive: df.keepAlive}
	opt.Transport = tr
	opt.Logf = log.Printf

	ln, err := tr.Listen(df.listen)
	if err != nil {
		log.Fatal(err)
	}

	// The serve/close pair the role selects; a root is an ordinary server
	// (shard frames are part of the base protocol), a leaf wraps one.
	var serve func() error
	var closer interface{ Close() error }
	role := "server"
	if isLeaf {
		leaf := shardbarrier.NewLeaf(shardbarrier.LeafOptions{
			Net:    opt,
			Root:   df.root,
			Index:  df.shardID,
			Shards: df.shards,
		})
		serve = func() error { return leaf.Serve(ln) }
		closer = leaf
		role = "leaf of " + df.root
	} else {
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
	log.Printf("listening on %s as %s (watchdog %v, replan every %d episodes, elastic %v, collective %s, placement %s)",
		ln.Addr(), role, opt.Watchdog, opt.ReplanEvery, opt.Elastic, coll, place)
	if err := serve(); err != nil && !errors.Is(err, netbarrier.ErrServerClosed) {
		log.Fatal(err)
	}
}
