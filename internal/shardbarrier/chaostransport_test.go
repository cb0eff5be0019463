package shardbarrier

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"softbarrier/internal/wire"
)

// ErrReset is the error a connection reports after an injected reset.
var ErrReset = errors.New("chaos: connection reset")

// ErrTruncated is the error the writer sees after an injected mid-frame
// truncation (the peer sees a short read and a decode failure).
var ErrTruncated = errors.New("chaos: frame truncated mid-write")

// Config sets the fault mix. Probabilities are per operation (one frame
// write or one read call) in [0, 1]; at most one fault fires per
// operation, checked in the order reset, truncate, stall, partition
// (writes) / reset, slow-loris (reads). The zero value injects nothing.
type Config struct {
	// WriteLatency/WriteJitter delay each fault-free write by
	// WriteLatency + uniform[0, WriteJitter); ReadLatency/ReadJitter do
	// the same for reads.
	WriteLatency, WriteJitter time.Duration
	ReadLatency, ReadJitter   time.Duration

	// ResetProb abruptly closes the connection before the operation, on
	// either direction.
	ResetProb float64

	// TruncateProb cuts a write short — a strict prefix of the buffer is
	// delivered, then the connection is closed — so the peer's frame
	// decoder sees a mid-frame cut.
	TruncateProb float64

	// StallProb freezes a write for StallFor (0 selects 2s) before it
	// proceeds; with a write deadline armed that expires first, the write
	// fails with the deadline error, exactly like a stalled TCP socket.
	StallProb float64
	StallFor  time.Duration

	// PartitionProb (drawn on writes) freezes BOTH directions of the
	// connection for PartitionFor (0 selects 2s): a mid-epoch partition.
	// Nothing is closed; progress resumes when the partition heals, by
	// which time a session watchdog may have poisoned the episode.
	PartitionProb float64
	PartitionFor  time.Duration

	// SlowLorisProb switches the reader into trickle mode for the next
	// SlowLorisBytes bytes (0 selects 16): each is delivered alone after
	// SlowLorisPace (0 selects 10ms).
	SlowLorisProb  float64
	SlowLorisPace  time.Duration
	SlowLorisBytes int
}

func (c *Config) stallFor() time.Duration {
	if c.StallFor > 0 {
		return c.StallFor
	}
	return 2 * time.Second
}

func (c *Config) partitionFor() time.Duration {
	if c.PartitionFor > 0 {
		return c.PartitionFor
	}
	return 2 * time.Second
}

func (c *Config) lorisPace() time.Duration {
	if c.SlowLorisPace > 0 {
		return c.SlowLorisPace
	}
	return 10 * time.Millisecond
}

func (c *Config) lorisBytes() int {
	if c.SlowLorisBytes > 0 {
		return c.SlowLorisBytes
	}
	return 16
}

// Transport is a seeded, deterministic fault-injecting wrapper around
// any wire.Transport. It perturbs the byte streams of dialed connections —
// per-direction latency and jitter, frame truncation, stalled writes,
// mid-epoch partitions, connection resets, slow-loris reads — according to
// a schedule that is a pure function of (seed, connection index,
// direction, operation index): replaying a run with the same seed and the
// same per-connection operation sequence injects byte-identically the same
// faults.
//
// Only dialed connections are wrapped; Listen passes through to the inner
// transport. That covers both directions of every link — write faults hit
// the client→server stream, read faults hit the server→client stream —
// without double-injecting when one Transport serves both ends in
// process, and it keeps the schedule independent of accept-order races:
// connection indices are assigned in dial order.
//
// Faults fire at operation boundaries and honor the connection's
// deadlines: an injected stall on a write with a deadline armed produces
// exactly the timeout the server's fan-out machinery expects from a
// stalled TCP socket.
//
// It wraps Inner, injecting Config's faults on dialed connections
// according to the deterministic schedule Seed selects.
type Transport struct {
	Inner  wire.Transport
	Seed   uint64
	Config Config
	// Record, when set, keeps a log of every injected event, retrievable
	// with Events. Off by default: a large fault run logs a lot.
	Record bool

	mu    sync.Mutex
	nconn int
	log   []string
}

// New wraps inner with the given seed and fault mix.
func New(inner wire.Transport, seed uint64, cfg Config) *Transport {
	return &Transport{Inner: inner, Seed: seed, Config: cfg}
}

// Listen delegates to the inner transport: accepted connections are not
// wrapped (see Transport).
func (t *Transport) Listen(addr string) (wire.Listener, error) { return t.Inner.Listen(addr) }

// Dial dials through the inner transport and wraps the connection with
// the next connection index's fault schedule.
func (t *Transport) Dial(addr string, timeout time.Duration) (wire.Conn, error) {
	inner, err := t.Inner.Dial(addr, timeout)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	id := t.nconn
	t.nconn++
	t.mu.Unlock()
	c := &conn{Conn: inner, tr: t, id: id}
	c.rrng = rngFor(t.Seed, id, false)
	c.wrng = rngFor(t.Seed, id, true)
	return c, nil
}

// Events returns every recorded injected event, sorted into the canonical
// (connection, direction, operation) order, so two runs with identical
// per-connection operation sequences yield byte-identical slices
// regardless of goroutine interleaving. Requires Record.
func (t *Transport) Events() []string {
	t.mu.Lock()
	out := append([]string(nil), t.log...)
	t.mu.Unlock()
	sort.Strings(out)
	return out
}

func (t *Transport) record(id int, write bool, seq int, ev event) {
	if !t.Record {
		return
	}
	dir := "r"
	if write {
		dir = "w"
	}
	line := fmt.Sprintf("c%06d %s#%09d %s", id, dir, seq, ev)
	t.mu.Lock()
	t.log = append(t.log, line)
	t.mu.Unlock()
}

// Event kinds, in scheduling order.
const (
	evNone      = ""
	evLatency   = "latency"
	evReset     = "reset"
	evTruncate  = "truncate"
	evStall     = "stall"
	evPartition = "partition"
	evSlowLoris = "slowloris"
)

// event is one scheduled decision: what happens to operation seq of one
// direction of one connection.
type event struct {
	Kind  string
	Delay time.Duration // latency events: the injected delay
	Frac  float64       // truncate events: prefix fraction of the buffer
}

func (e event) String() string {
	switch e.Kind {
	case evLatency:
		return fmt.Sprintf("latency %v", e.Delay)
	case evTruncate:
		return fmt.Sprintf("truncate %.6f", e.Frac)
	default:
		return e.Kind
	}
}

// splitmix64; the finalizer scrambles the (seed, conn, dir) mix so
// adjacent connection indices get uncorrelated streams.
type prng struct{ s uint64 }

func (p *prng) next() uint64 {
	p.s += 0x9e3779b97f4a7c15
	z := p.s
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

func (p *prng) float() float64 { return float64(p.next()>>11) / (1 << 53) }

func rngFor(seed uint64, conn int, write bool) prng {
	s := seed ^ (uint64(conn) * 0x9e3779b97f4a7c15)
	if write {
		s ^= 0xd1342543de82ef95
	}
	// One warm-up scramble so seed 0 / conn 0 is not the raw counter.
	p := prng{s: s}
	p.next()
	return p
}

// draw advances one direction's schedule by one operation. It is the
// single source of truth for both the live connections and Schedule, and
// always consumes exactly three draws per operation, so the stream stays
// aligned whatever the config enables.
func draw(r *prng, cfg *Config, write bool) event {
	u := r.float()  // fault selector
	uj := r.float() // jitter fraction
	ua := r.float() // fault argument
	if write {
		switch {
		case u < cfg.ResetProb:
			return event{Kind: evReset}
		case u < cfg.ResetProb+cfg.TruncateProb:
			return event{Kind: evTruncate, Frac: ua}
		case u < cfg.ResetProb+cfg.TruncateProb+cfg.StallProb:
			return event{Kind: evStall}
		case u < cfg.ResetProb+cfg.TruncateProb+cfg.StallProb+cfg.PartitionProb:
			return event{Kind: evPartition}
		}
		if d := cfg.WriteLatency + time.Duration(uj*float64(cfg.WriteJitter)); d > 0 {
			return event{Kind: evLatency, Delay: d}
		}
		return event{Kind: evNone}
	}
	switch {
	case u < cfg.ResetProb:
		return event{Kind: evReset}
	case u < cfg.ResetProb+cfg.SlowLorisProb:
		return event{Kind: evSlowLoris}
	}
	if d := cfg.ReadLatency + time.Duration(uj*float64(cfg.ReadJitter)); d > 0 {
		return event{Kind: evLatency, Delay: d}
	}
	return event{Kind: evNone}
}

// Schedule returns the first n events of one direction of connection
// conn's schedule — a pure function of (Seed, Config, conn, write): what
// a live connection will inject on its first n operations.
func (t *Transport) Schedule(conn int, write bool, n int) []string {
	r := rngFor(t.Seed, conn, write)
	out := make([]string, n)
	for i := range out {
		out[i] = draw(&r, &t.Config, write).String()
	}
	return out
}

// conn wraps one dialed connection. The read half (rrng, rseq, trickle)
// is owned by the reader goroutine, the write half by writers serialized
// under wmu — the same two-halves discipline as wire.FrameConn. The
// partition deadline is shared (either direction may be frozen by it).
type conn struct {
	wire.Conn
	tr *Transport
	id int

	rmu     sync.Mutex
	rrng    prng
	rseq    int
	trickle int // slow-loris bytes still to trickle

	wmu  sync.Mutex
	wrng prng
	wseq int

	dlmu sync.Mutex
	rdl  time.Time
	wdl  time.Time

	partmu    sync.Mutex
	partUntil time.Time
}

func (c *conn) SetReadDeadline(t time.Time) error {
	c.dlmu.Lock()
	c.rdl = t
	c.dlmu.Unlock()
	return c.Conn.SetReadDeadline(t)
}

func (c *conn) SetWriteDeadline(t time.Time) error {
	c.dlmu.Lock()
	c.wdl = t
	c.dlmu.Unlock()
	return c.Conn.SetWriteDeadline(t)
}

func (c *conn) SetDeadline(t time.Time) error {
	c.dlmu.Lock()
	c.rdl, c.wdl = t, t
	c.dlmu.Unlock()
	return c.Conn.SetDeadline(t)
}

func (c *conn) deadline(write bool) time.Time {
	c.dlmu.Lock()
	defer c.dlmu.Unlock()
	if write {
		return c.wdl
	}
	return c.rdl
}

// sleep pauses for d, honoring the direction's deadline: if it expires
// first, sleep only until it and report the timeout.
func (c *conn) sleep(d time.Duration, write bool) error {
	wake := time.Now().Add(d)
	if dl := c.deadline(write); !dl.IsZero() && dl.Before(wake) {
		if until := time.Until(dl); until > 0 {
			time.Sleep(until)
		}
		return os.ErrDeadlineExceeded
	}
	time.Sleep(d)
	return nil
}

// waitPartition blocks while the connection is partitioned.
func (c *conn) waitPartition(write bool) error {
	c.partmu.Lock()
	until := c.partUntil
	c.partmu.Unlock()
	if until.IsZero() {
		return nil
	}
	if d := time.Until(until); d > 0 {
		return c.sleep(d, write)
	}
	return nil
}

func (c *conn) partition(d time.Duration) {
	c.partmu.Lock()
	c.partUntil = time.Now().Add(d)
	c.partmu.Unlock()
}

func (c *conn) Write(p []byte) (int, error) {
	c.wmu.Lock()
	ev := draw(&c.wrng, &c.tr.Config, true)
	seq := c.wseq
	c.wseq++
	c.wmu.Unlock()
	if ev.Kind != evNone {
		c.tr.record(c.id, true, seq, ev)
	}
	if err := c.waitPartition(true); err != nil {
		return 0, err
	}
	switch ev.Kind {
	case evLatency:
		if err := c.sleep(ev.Delay, true); err != nil {
			return 0, err
		}
	case evReset:
		c.Conn.Close()
		return 0, ErrReset
	case evTruncate:
		k := 1 + int(ev.Frac*float64(len(p)-1))
		if k >= len(p) {
			k = len(p) - 1
		}
		if k < 1 {
			k = 1
		}
		n, _ := c.Conn.Write(p[:k])
		c.Conn.Close()
		return n, ErrTruncated
	case evStall:
		if err := c.sleep(c.tr.Config.stallFor(), true); err != nil {
			return 0, err
		}
	case evPartition:
		c.partition(c.tr.Config.partitionFor())
		if err := c.waitPartition(true); err != nil {
			return 0, err
		}
	}
	return c.Conn.Write(p)
}

func (c *conn) Read(p []byte) (int, error) {
	c.rmu.Lock()
	if c.trickle > 0 {
		c.trickle--
		c.rmu.Unlock()
		if err := c.sleep(c.tr.Config.lorisPace(), false); err != nil {
			return 0, err
		}
		if len(p) > 1 {
			p = p[:1]
		}
		return c.Conn.Read(p)
	}
	ev := draw(&c.rrng, &c.tr.Config, false)
	seq := c.rseq
	c.rseq++
	if ev.Kind == evSlowLoris {
		c.trickle = c.tr.Config.lorisBytes()
	}
	c.rmu.Unlock()
	if ev.Kind != evNone {
		c.tr.record(c.id, false, seq, ev)
	}
	if err := c.waitPartition(false); err != nil {
		return 0, err
	}
	switch ev.Kind {
	case evLatency:
		if err := c.sleep(ev.Delay, false); err != nil {
			return 0, err
		}
	case evReset:
		c.Conn.Close()
		return 0, ErrReset
	case evSlowLoris:
		if err := c.sleep(c.tr.Config.lorisPace(), false); err != nil {
			return 0, err
		}
		if len(p) > 1 {
			p = p[:1]
		}
	}
	return c.Conn.Read(p)
}
