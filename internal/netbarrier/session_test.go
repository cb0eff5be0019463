package netbarrier

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"softbarrier"
	"softbarrier/internal/wire"
)

// loopUpstream is a fleet of one: every forwarded arrival is released at
// once with the leaf's own fold. It keeps each opened link's failure hook,
// in Open order, so a test can fire one late.
type loopUpstream struct {
	mu    sync.Mutex
	fails []func(error)
}

func (u *loopUpstream) Open(_ string, fail func(error)) UpstreamLink {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.fails = append(u.fails, fail)
	return loopLink{}
}

type loopLink struct{}

func (loopLink) Arrive(_ int, _, _ float64, data []byte, done func(ShardOutcome)) {
	done(ShardOutcome{Result: data})
}

func (loopLink) Close(error) {}

// TestStaleUpstreamFailSparesSuccessor is ROADMAP gap 4(c)(i): a root link
// that fails late used to poison by session name, and so killed whichever
// session held the name by then. The link's failure hook now belongs to
// the session instance that opened the link, so firing the hook of a
// poisoned and retired session must leave its successor alone.
func TestStaleUpstreamFailSparesSuccessor(t *testing.T) {
	up := &loopUpstream{}
	addr, _ := startServer(t, Options{Upstream: up, Watchdog: 30 * time.Second})

	first := []*Client{dialJoin(t, addr, "reuse", 2, 0), dialJoin(t, addr, "reuse", 2, 1)}
	defer first[0].Close()
	if err := first[0].Arrive(); err != nil {
		t.Fatal(err)
	}
	first[1].Close() // dies without arriving: the session is poisoned and gives up its name
	if _, err := first[0].Await(); err == nil {
		t.Fatal("survivor was released from a poisoned episode")
	}

	const p, episodes = 2, 100
	second := make([]*Client, p)
	for i := range second {
		second[i] = dialJoin(t, addr, "reuse", p, i)
		defer second[i].Close()
	}
	up.mu.Lock()
	if len(up.fails) != 2 {
		up.mu.Unlock()
		t.Fatalf("%d links opened, want one per session instance", len(up.fails))
	}
	stale := up.fails[0]
	up.mu.Unlock()
	stale(errors.New("root link of the first session failed late"))

	var wg sync.WaitGroup
	for _, c := range second {
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			for ep := 0; ep < episodes; ep++ {
				if _, err := c.Wait(); err != nil {
					t.Errorf("successor session, episode %d: %v", ep, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// rawMember joins session "deposit" with a hand-written handshake frame and
// returns the framed connection, for tests that must send frames no Client
// would.
func rawMember(t *testing.T, addr string, join wire.Frame) *wire.FrameConn {
	t.Helper()
	conn, err := testNet.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	fc := wire.NewFrameConn(conn)
	t.Cleanup(func() { fc.Close() })
	fc.SetReadDeadline(time.Now().Add(10 * time.Second))
	join.Name = "deposit"
	if err := fc.WriteFrame(join); err != nil {
		t.Fatal(err)
	}
	if resp, err := fc.ReadFrame(); err != nil || resp.Type != wire.TypeJoinResp || resp.Err != "" {
		t.Fatalf("join: %+v, %v", resp, err)
	}
	return fc
}

// TestDepositTable is the payload table, once, over every way an arrival
// reaches the tree: no op + bytes is a violation, op + no bytes folds the
// identity, op + wrong width is a violation, anything else is deposited.
func TestDepositTable(t *testing.T) {
	sum, _ := softbarrier.OpByName("sum-u64")
	seven := binary.BigEndian.AppendUint64(nil, 7)
	payloads := map[string][]byte{"empty": nil, "right width": seven, "wrong width": {1, 2, 3}}

	for _, op := range []*softbarrier.Op{nil, &sum} {
		for _, path := range []string{"arrive", "arrive-data", "shard-arrive", "elastic proxy"} {
			for width, data := range payloads {
				if data != nil && (path == "arrive" || path == "elastic proxy") {
					continue // neither can carry a payload
				}
				opName := "no op"
				var want string // substring of the poison cause; "" = released
				switch {
				case op == nil && data != nil:
					want = "no collective op"
				case op != nil && width == "wrong width":
					want = "wants 8"
				}
				if op != nil {
					opName = op.Name
				}
				t.Run(fmt.Sprintf("%s/%s/%s", opName, path, width), func(t *testing.T) {
					addr, _ := startServer(t, Options{Op: op, Elastic: path == "elastic proxy"})
					var fc *wire.FrameConn
					wantResult := data
					switch path {
					case "arrive":
						fc = rawMember(t, addr, wire.Frame{Type: wire.TypeJoinReq, P: 1, ID: 0})
						fc.WriteFrame(wire.Frame{Type: wire.TypeArrive})
					case "arrive-data":
						fc = rawMember(t, addr, wire.Frame{Type: wire.TypeJoinReq, P: 1, ID: 0})
						fc.WriteFrame(wire.Frame{Type: wire.TypeArriveData, Data: data})
					case "shard-arrive":
						fc = rawMember(t, addr, wire.Frame{Type: wire.TypeShardJoin, P: 1, ID: 0})
						fc.WriteFrame(wire.Frame{Type: wire.TypeShardArrive, P: 4, Data: data})
					case "elastic proxy":
						// Member 0 contributes; member 1 leaves without
						// arriving, and the session's proxy arrival for it
						// must not change the fold.
						fc = rawMember(t, addr, wire.Frame{Type: wire.TypeJoinReq, P: 2, ID: -1})
						leaver := rawMember(t, addr, wire.Frame{Type: wire.TypeJoinReq, P: 2, ID: -1})
						if op != nil {
							wantResult = seven
							fc.WriteFrame(wire.Frame{Type: wire.TypeArriveData, Data: seven})
						} else {
							fc.WriteFrame(wire.Frame{Type: wire.TypeArrive})
						}
						leaver.WriteFrame(wire.Frame{Type: wire.TypeLeave})
					}
					f, err := fc.ReadFrame()
					if err != nil {
						t.Fatal(err)
					}
					if want != "" {
						cause := softbarrier.DecodePoisonCause(f.Cause)
						if f.Type != wire.TypePoison || !strings.Contains(cause.Error(), want) {
							t.Fatalf("got %s (%v), want a poison naming %q", wire.FrameName(f.Type), cause, want)
						}
						return
					}
					if f.Type == wire.TypePoison {
						t.Fatalf("poisoned: %v", softbarrier.DecodePoisonCause(f.Cause))
					}
					if op == nil {
						if len(f.Data) != 0 {
							t.Fatalf("plain session released %d payload bytes", len(f.Data))
						}
						return
					}
					if wantResult == nil {
						wantResult = make([]byte, 8) // the op's identity
					}
					if !bytes.Equal(f.Data, wantResult) {
						t.Fatalf("folded %x, want %x", f.Data, wantResult)
					}
				})
			}
		}
	}
}

// captureConn is a member socket that takes every frame whole and keeps
// the bytes.
type captureConn struct {
	net.Conn
	got bytes.Buffer
}

func (c *captureConn) TryWrite(p []byte) (int, error) { return c.got.Write(p) }
func (c *captureConn) Read(p []byte) (int, error)     { return c.got.Read(p) }

// TestBoundaryFixedEqualsIdleElastic is the claim that lets one episode
// boundary serve both kinds of session: driven through the same arrivals
// by one driver, a fixed session and an elastic session nobody joins or
// leaves put the same release frames — episode, degree, P, epoch — on
// their members' sockets, across a re-plan. The re-plan is taken out of
// timing's hands: with a model t_c of one second both sessions start flat
// (an assumed σ of 100 s) and the driver's spread — microseconds, or
// milliseconds when the scheduler interferes — re-plans both to a narrow
// tree at the first cadence and never again; the nearest degree threshold
// is seconds away. The two measured fields, Spread and Sigma, are zeroed
// before comparing.
func TestBoundaryFixedEqualsIdleElastic(t *testing.T) {
	const p, episodes = 16, 40
	run := func(elastic bool) [][]wire.Frame {
		srv := NewServer(Options{Elastic: elastic, ReplanEvery: 5, Tc: 1, InitialSigma: 100})
		conns := make([]*captureConn, p)
		members := make([]*srvConn, p)
		var sess *session
		for i := range conns {
			conns[i] = &captureConn{}
			members[i] = newSrvConn(conns[i])
			s, resp, deferred := srv.join(members[i], &wire.Frame{Type: wire.TypeJoinReq, Name: "eq", P: p, ID: i})
			if s == nil || deferred {
				t.Fatalf("member %d not seated: %+v", i, resp)
			}
			sess = s
		}
		for ep := uint64(0); ep < episodes; ep++ {
			for _, m := range members {
				sess.arrive(m, &wire.Frame{Type: wire.TypeArrive, Episode: ep})
			}
		}
		if st := sess.stats(); st.Episode != episodes || st.Reconfig.LastPlan.Epoch < 1 {
			t.Fatalf("elastic=%v: %d episodes, epoch %d — the run must cross a re-plan", elastic, st.Episode, st.Reconfig.LastPlan.Epoch)
		}
		out := make([][]wire.Frame, p)
		for i, c := range conns {
			for fc := wire.NewFrameConn(c); ; {
				f, err := fc.ReadFrame()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("elastic=%v member %d: %v", elastic, i, err)
				}
				f.Spread, f.Sigma = 0, 0
				out[i] = append(out[i], *f)
			}
		}
		return out
	}
	fixed, idle := run(false), run(true)
	for i := range fixed {
		if len(fixed[i]) != episodes || !reflect.DeepEqual(fixed[i], idle[i]) {
			t.Fatalf("member %d: fixed session released\n%+v\nidle elastic session\n%+v", i, fixed[i], idle[i])
		}
	}
}
