package netbarrier

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"softbarrier"
)

func f64bytes(v float64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, math.Float64bits(v))
	return b
}

func bytesF64(b []byte) float64 {
	return math.Float64frombits(binary.BigEndian.Uint64(b))
}

func opPtr(op softbarrier.Op) *softbarrier.Op { return &op }

// TestCollectiveSessionAllReduce drives a fixed-membership collective
// session with the non-commutative float sum and checks every episode's
// result bit-for-bit against the sequential ascending-id fold — the
// magnitudes are chosen so any other fold order produces different bits.
func TestCollectiveSessionAllReduce(t *testing.T) {
	const p, episodes = 6, 30
	op, _ := softbarrier.OpByName("sum-f64")
	addr, _ := startServer(t, Options{Watchdog: 30 * time.Second, Op: opPtr(op)})

	contrib := func(id, ep int) float64 {
		// Spread magnitudes over ~9 decades: (a+b)+c differs in bits from
		// a+(b+c) for these, so the fold order is observable.
		return float64(id+1) * math.Pow(10, float64((id*3+ep)%9-4))
	}
	want := func(ep int) float64 {
		acc := contrib(0, ep)
		for id := 1; id < p; id++ {
			acc += contrib(id, ep)
		}
		return acc
	}

	var wg sync.WaitGroup
	errs := make([]error, p)
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := dialJoin(t, addr, "collective", p, i)
			defer c.Leave()
			for ep := 0; ep < episodes; ep++ {
				res, err := c.AllReduce(f64bytes(contrib(i, ep)))
				if err != nil {
					errs[i] = fmt.Errorf("episode %d: %w", ep, err)
					return
				}
				if got, w := bytesF64(res), want(ep); math.Float64bits(got) != math.Float64bits(w) {
					errs[i] = fmt.Errorf("episode %d: result %v (bits %x), want %v (bits %x)",
						ep, got, math.Float64bits(got), w, math.Float64bits(w))
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("client %d: %v", i, err)
		}
	}
}

// TestCollectiveSessionMixedArrivals checks that a payload-less Wait in a
// collective session contributes the op's identity: the cohort's result
// is the fold over only the contributing members.
func TestCollectiveSessionMixedArrivals(t *testing.T) {
	const p = 4
	op, _ := softbarrier.OpByName("sum-u64")
	addr, _ := startServer(t, Options{Watchdog: 30 * time.Second, Op: opPtr(op)})

	var wg sync.WaitGroup
	errs := make([]error, p)
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := dialJoin(t, addr, "mixed", p, i)
			defer c.Leave()
			for ep := 0; ep < 10; ep++ {
				if i == 0 {
					// Plain barrier participation: contributes identity, and
					// the release still carries the cohort's result.
					rel, err := c.Wait()
					if err != nil {
						errs[i] = err
						return
					}
					if got := binary.BigEndian.Uint64(rel.Result); got != 60 {
						errs[i] = fmt.Errorf("episode %d: plain waiter saw sum %d, want 60", ep, got)
						return
					}
					continue
				}
				in := make([]byte, 8)
				binary.BigEndian.PutUint64(in, uint64(i*10))
				res, err := c.AllReduce(in)
				if err != nil {
					errs[i] = err
					return
				}
				if got := binary.BigEndian.Uint64(res); got != 60 { // 10+20+30
					errs[i] = fmt.Errorf("episode %d: sum %d, want 60", ep, got)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("client %d: %v", i, err)
		}
	}
}

// TestCollectiveWidthViolationPoisons checks the server treats a
// mis-sized contribution as a protocol violation poisoning the session.
func TestCollectiveWidthViolationPoisons(t *testing.T) {
	op, _ := softbarrier.OpByName("sum-u64")
	addr, _ := startServer(t, Options{Op: opPtr(op)})
	c0 := dialJoin(t, addr, "width", 2, 0)
	defer c0.Close()
	c1 := dialJoin(t, addr, "width", 2, 1)
	defer c1.Close()

	if err := c1.ArriveReduce([]byte{1, 2, 3}); err != nil { // op wants 8 bytes
		t.Fatal(err)
	}
	if _, err := c1.Await(); err == nil || !strings.Contains(err.Error(), "protocol violation") {
		t.Fatalf("mis-sized contribution not poisoned: %v", err)
	}
}

// TestCollectiveDataWithoutOpPoisons checks an ArriveData frame against a
// plain (op-less) session is a protocol violation.
func TestCollectiveDataWithoutOpPoisons(t *testing.T) {
	addr, _ := startServer(t, Options{})
	c0 := dialJoin(t, addr, "noop", 2, 0)
	defer c0.Close()
	c1 := dialJoin(t, addr, "noop", 2, 1)
	defer c1.Close()

	if err := c1.ArriveReduce(make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Await(); err == nil || !strings.Contains(err.Error(), "no collective op") {
		t.Fatalf("arrive-data against a plain session not poisoned: %v", err)
	}
}

// episodeRecord is one client's view of one completed collective episode.
type episodeRecord struct {
	episode uint64
	contrib uint64
	result  uint64
}

// TestAcceptanceElasticAllReduce is the collective acceptance run: a
// 64-client elastic cohort completes well over 1000 AllReduce episodes
// with 8 members leaving and 8 joining mid-run, and afterwards every
// episode's delivered result must equal the fold of exactly the
// contributions its participants recorded — the sequential fold,
// reconstructed from the clients' own ledgers, with elastic leavers
// proxy-folded as the identity. Contributions are keyed by episode, not
// by id, because an elastic server re-assigns ids at every boundary.
func TestAcceptanceElasticAllReduce(t *testing.T) {
	if testing.Short() {
		t.Skip("acceptance run; skipped with -short")
	}
	const (
		cohort  = 64
		churn   = 8
		minEp   = 1000
		session = "allreduce-acceptance"
	)
	op, _ := softbarrier.OpByName("sum-u64")
	addr, srv := startServer(t, Options{
		Elastic:     true,
		ReplanEvery: 4,
		Watchdog:    30 * time.Second,
		Op:          opPtr(op),
	})

	var mu sync.Mutex
	var ledger []episodeRecord

	var wg sync.WaitGroup
	errs := make(chan error, cohort+churn)
	stops := make([]chan struct{}, 0, cohort+churn)
	runner := func(c *Client, seed uint64, stop <-chan struct{}) {
		defer wg.Done()
		var recs []episodeRecord
		x := seed
		for {
			select {
			case <-stop:
				errs <- c.Leave()
				mu.Lock()
				ledger = append(ledger, recs...)
				mu.Unlock()
				return
			default:
			}
			x = x*6364136223846793005 + 1442695040888963407 // id-independent pseudo-random contribution
			in := make([]byte, 8)
			binary.BigEndian.PutUint64(in, x)
			ep := c.episode
			res, err := c.AllReduce(in)
			if err != nil {
				errs <- err
				mu.Lock()
				ledger = append(ledger, recs...)
				mu.Unlock()
				return
			}
			recs = append(recs, episodeRecord{episode: ep, contrib: x, result: binary.BigEndian.Uint64(res)})
		}
	}
	start := func(c *Client, seed uint64) {
		stop := make(chan struct{})
		stops = append(stops, stop)
		wg.Add(1)
		go runner(c, seed, stop)
	}

	clients := make([]*Client, cohort)
	var joinWG sync.WaitGroup
	for i := range clients {
		joinWG.Add(1)
		go func(i int) {
			defer joinWG.Done()
			clients[i] = dialJoin(t, addr, session, cohort, -1)
		}(i)
	}
	joinWG.Wait()
	for i, c := range clients {
		start(c, uint64(i+1))
	}

	waitEpisode(t, srv, session, 300)
	for _, stop := range stops[cohort-churn:] {
		close(stop)
	}
	waitEpisode(t, srv, session, 500)
	lateJoined := make(chan *Client, churn)
	for i := 0; i < churn; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lateJoined <- dialJoin(t, addr, session, cohort, -1)
		}()
	}
	for i := 0; i < churn; i++ {
		start(<-lateJoined, uint64(1000+i))
	}

	st := waitEpisode(t, srv, session, minEp+100)
	for _, stop := range stops[:cohort-churn] {
		close(stop)
	}
	for _, stop := range stops[cohort:] {
		close(stop)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Errorf("client failed: %v", err)
		}
	}

	// Differential check: per episode, the fold of the recorded
	// contributions must equal the result every participant received.
	sums := map[uint64]uint64{}
	results := map[uint64]uint64{}
	contributors := map[uint64]int{}
	for _, r := range ledger {
		sums[r.episode] += r.contrib
		contributors[r.episode]++
		if prev, ok := results[r.episode]; ok && prev != r.result {
			t.Fatalf("episode %d: clients disagree on the result (%d vs %d)", r.episode, prev, r.result)
		}
		results[r.episode] = r.result
	}
	if len(results) < minEp {
		t.Fatalf("only %d episodes completed, want ≥ %d", len(results), minEp)
	}
	mismatches := 0
	for ep, res := range results {
		if sums[ep] != res {
			mismatches++
			if mismatches <= 5 {
				t.Errorf("episode %d: result %d != fold of %d recorded contributions %d", ep, res, contributors[ep], sums[ep])
			}
		}
	}
	if mismatches > 0 {
		t.Fatalf("%d of %d episodes diverged from the sequential fold", mismatches, len(results))
	}
	t.Logf("collective acceptance: %d episodes verified against client ledgers, final membership %d, epoch %d",
		len(results), st.P, st.Reconfig.LastPlan.Epoch)
}

// benchAllReduce measures full collective episodes — every client
// contributes 8 bytes and blocks for the folded result — against a
// server started by start, so ns/op is one complete AllReduce at each
// cohort size; put it next to the plain-barrier benchmarks to read the
// payload's marginal cost.
func benchAllReduce(b *testing.B, start func(testing.TB, Options) (string, *Server)) {
	op, _ := softbarrier.OpByName("sum-u64")
	for _, p := range []int{8, 64} {
		b.Run(fmt.Sprintf("%dclients", p), func(b *testing.B) {
			b.ReportAllocs()
			addr, _ := start(b, Options{Watchdog: 30 * time.Second, Op: opPtr(op)})
			clients := make([]*Client, p)
			for i := range clients {
				clients[i] = dialJoin(b, addr, "bench-allreduce", p, i)
			}
			defer func() {
				for _, c := range clients {
					c.Leave()
				}
			}()

			var wg sync.WaitGroup
			errs := make([]error, p)
			b.ResetTimer()
			for i, c := range clients {
				wg.Add(1)
				go func(i int, c *Client) {
					defer wg.Done()
					in := make([]byte, 8)
					binary.BigEndian.PutUint64(in, uint64(i))
					for ep := 0; ep < b.N; ep++ {
						if _, err := c.AllReduce(in); err != nil {
							errs[i] = err
							return
						}
					}
				}(i, c)
			}
			wg.Wait()
			b.StopTimer()
			for i, err := range errs {
				if err != nil {
					b.Fatalf("client %d: %v", i, err)
				}
			}
		})
	}
}

// BenchmarkNetAllReduce runs the collective suite over loopback TCP, the
// production transport.
func BenchmarkNetAllReduce(b *testing.B) { benchAllReduce(b, startTCPServer) }

// BenchmarkNetAllReduceMemNet runs it over the in-process memnet; the
// TCP-minus-memnet delta is the kernel's share of a collective episode.
func BenchmarkNetAllReduceMemNet(b *testing.B) { benchAllReduce(b, startServer) }
