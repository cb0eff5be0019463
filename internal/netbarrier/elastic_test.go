package netbarrier

import (
	"sync"
	"testing"
	"time"

	"softbarrier/internal/wire"
)

// elasticClient loops whole barrier episodes until its stop channel closes
// (then departs gracefully between episodes) or an episode fails. Errors
// land on errs; a clean departure sends nil.
func elasticClient(c *Client, stop <-chan struct{}, errs chan<- error, wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		select {
		case <-stop:
			errs <- c.Leave()
			return
		default:
		}
		if _, err := c.Wait(); err != nil {
			errs <- err
			return
		}
	}
}

// waitEpisode polls the session's episode counter until it reaches at
// least want, returning the stats snapshot that crossed the line.
func waitEpisode(t *testing.T, srv *Server, session string, want uint64) SessionStats {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st, ok := srv.SessionStats(session)
		if ok && st.Episode >= want {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for episode %d (last stats %+v, live %v)", want, st, ok)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestElasticMembershipAcceptance is the elastic-session torture run: a
// 64-client cohort completes well over 1000 episodes while 8 members leave
// mid-run and 8 fresh clients join against the full session (parking until
// an episode boundary admits them), with degree re-planning running
// throughout. Nothing may error, and the session must end back at 64
// members with the epoch/rebuild counters reflecting the membership moves.
func TestElasticMembershipAcceptance(t *testing.T) {
	const (
		cohort  = 64
		churn   = 8
		session = "elastic-acceptance"
	)
	addr, srv := startServer(t, Options{
		Elastic:     true,
		ReplanEvery: 4,
		Watchdog:    30 * time.Second,
	})

	var wg sync.WaitGroup
	errs := make(chan error, cohort+churn)
	stops := make([]chan struct{}, 0, cohort+churn)
	start := func(c *Client) {
		stop := make(chan struct{})
		stops = append(stops, stop)
		wg.Add(1)
		go elasticClient(c, stop, errs, &wg)
	}

	// Formation: 64 clients fill the initial cohort.
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
	for _, c := range clients {
		start(c)
	}

	// Let the cohort run, then shed 8 members mid-run.
	waitEpisode(t, srv, session, 300)
	for _, stop := range stops[cohort-churn:] {
		close(stop)
	}
	waitEpisode(t, srv, session, 500)

	// 8 late joiners against the (again full-feeling) session: each Join
	// blocks until an episode boundary admits it into the next epoch.
	lateJoined := make(chan *Client, churn)
	for i := 0; i < churn; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lateJoined <- dialJoin(t, addr, session, cohort, -1)
		}()
	}
	for i := 0; i < churn; i++ {
		start(<-lateJoined)
	}

	// Run the full cohort well past the 1000-episode mark, snapshot the
	// telemetry while the session is still live, then wind everything down.
	st := waitEpisode(t, srv, session, 1100)
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

	if st.P != cohort {
		t.Errorf("final membership = %d, want %d", st.P, cohort)
	}
	if st.Members != cohort {
		t.Errorf("live members at snapshot = %d, want %d", st.Members, cohort)
	}
	r := st.Reconfig
	// The shrink boundary and the admission boundary each force a rebuild
	// (membership changed), so at least two epochs beyond the initial one.
	if r.LastPlan.Epoch < 2 {
		t.Errorf("epoch = %d, want ≥ 2 (shrink + admission boundaries)", r.LastPlan.Epoch)
	}
	if r.LastPlan.P != cohort {
		t.Errorf("last plan P = %d, want %d", r.LastPlan.P, cohort)
	}
	t.Logf("elastic acceptance: %d episodes, %d evals, last plan %+v",
		st.Episode, r.Evals, r.LastPlan)
}

// TestElasticLateJoinExpands pins the welcome-the-stranger behaviour at
// small scale: a 2-member elastic session admits a third joiner at an
// episode boundary (instead of refusing "session is full"), after which
// releases report the expanded membership to everyone.
func TestElasticLateJoinExpands(t *testing.T) {
	const session = "elastic-grow"
	addr, srv := startServer(t, Options{Elastic: true, Watchdog: 10 * time.Second})

	a := dialJoin(t, addr, session, 2, -1)
	b := dialJoin(t, addr, session, 2, -1)

	// The third join parks until a boundary; drive one episode with the
	// founding pair so the boundary happens.
	type joined struct {
		c   *Client
		err error
	}
	done := make(chan joined, 1)
	go func() {
		c, err := testDial(addr)
		if err == nil {
			err = c.Join(session, 2) // participant count is advisory in elastic sessions
		}
		done <- joined{c, err}
	}()
	waitFor := time.Now().Add(10 * time.Second)
	for {
		st, ok := srv.SessionStats(session)
		if ok && st.Pending == 1 {
			break
		}
		if time.Now().After(waitFor) {
			t.Fatal("late joiner never parked as pending")
		}
		time.Sleep(100 * time.Microsecond)
	}

	var wg sync.WaitGroup
	for _, c := range []*Client{a, b} {
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			if _, err := c.Wait(); err != nil {
				t.Errorf("founding member: %v", err)
			}
		}(c)
	}
	wg.Wait()
	j := <-done
	if j.err != nil {
		t.Fatalf("late join: %v", j.err)
	}
	if got := j.c.Participants(); got != 3 {
		t.Errorf("late joiner sees p = %d, want 3", got)
	}

	// One episode at the expanded width; every member must see p = 3 and
	// epoch ≥ 1 in the release.
	for _, c := range []*Client{a, b, j.c} {
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			r, err := c.Wait()
			if err != nil {
				t.Errorf("expanded episode: %v", err)
				return
			}
			if r.P != 3 {
				t.Errorf("release reports p = %d, want 3", r.P)
			}
			if r.Epoch < 1 {
				t.Errorf("release reports epoch %d, want ≥ 1", r.Epoch)
			}
		}(c)
	}
	wg.Wait()
	for _, c := range []*Client{a, b, j.c} {
		c.Leave()
	}
}

// TestShardJoinKeepsSlot: a shard's requested id is its slot in the root's
// ascending-id fold, so a root honours it whether or not its client
// sessions are elastic. An elastic server that handed out the first free
// slot instead would make a non-commutative fleet fold depend on the order
// in which the leaves joined.
func TestShardJoinKeepsSlot(t *testing.T) {
	for _, elastic := range []bool{false, true} {
		addr, _ := startServer(t, Options{Elastic: elastic})
		conn, err := testNet.Dial(addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		fc := wire.NewFrameConn(conn)
		defer fc.Close()
		fc.SetReadDeadline(time.Now().Add(10 * time.Second))
		if err := fc.WriteFrame(wire.Frame{Type: wire.TypeShardJoin, Name: "s", P: 3, ID: 2}); err != nil {
			t.Fatal(err)
		}
		resp, err := fc.ReadFrame()
		if err != nil || resp.Type != wire.TypeJoinResp || resp.Err != "" {
			t.Fatalf("elastic=%v: join: %+v, %v", elastic, resp, err)
		}
		if resp.ID != 2 || resp.P != 3 {
			t.Errorf("elastic=%v: shard asking for slot 2 of 3 got id %d of %d", elastic, resp.ID, resp.P)
		}
	}
}
