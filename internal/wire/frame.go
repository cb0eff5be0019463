package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// floatBits / bitsFloat move float64 fields on and off the wire as raw
// IEEE-754 bits, so any value — including NaN payloads — survives a
// round trip bit for bit.
func floatBits(f float64) uint64 { return math.Float64bits(f) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }

// The wire protocol is a stream of length-prefixed binary frames:
//
//	frame   := length(uint32, big-endian, of body) body
//	body    := type(1 byte) payload
//
// Eleven frame types cover the whole lifecycle. A client joins a named
// session (JoinReq/JoinResp), then alternates Arrive (client → server)
// with Release (server → client) once per episode, and finally departs
// with Leave. Poison (server → client) replaces Release when the episode
// is aborted; its payload is the softbarrier wire-encoded cause, so the
// remote waiter gets the same *StallError / sentinel error a local waiter
// would. Collective sessions substitute ArriveData for Arrive (the
// arrival carries the client's contribution bytes) and Result for
// Release (the release carries the folded result). The three shard frames
// (ShardJoin/ShardArrive/ShardRelease) are the inter-shard dialect of the
// same lifecycle, spoken by a leaf barrierd to its root: one aggregated
// arrival per leaf per episode instead of one per client. All integers
// are big-endian; floats travel as IEEE-754 bits.
//
// Every handshake frame (JoinReq, JoinResp, ShardJoin) leads with a
// protocol version byte. The decoder rejects any other version with an
// explicit mismatch error, so a leaf and a root built from different
// protocol revisions fail fast at join time instead of mis-decoding each
// other's episode frames. Post-handshake frames ride the version the
// handshake established and carry no byte of their own.
const (
	// TypeJoinReq (client → server) opens a session membership:
	// version(1) nameLen(uint16) name p(uint32) id(int32; -1 = server
	// assigns).
	TypeJoinReq = byte(1)
	// TypeJoinResp (server → client) answers a join:
	// version(1) id(uint32) p(uint32) degree(uint32) episode(uint64)
	// errLen(uint16) err. A non-empty err refuses the join; the other
	// fields are then meaningless.
	TypeJoinResp = byte(2)
	// TypeArrive (client → server) announces arrival at an episode:
	// episode(uint64). The episode must be the session's current one.
	TypeArrive = byte(3)
	// TypeRelease (server → client) completes an episode:
	// episode(uint64) degree(uint32) p(uint32) epoch(uint64)
	// spreadBits(uint64) sigmaBits(uint64). degree, p and epoch describe
	// the configuration the *next* episode will run at (they change when
	// the session re-plans its degree or, in elastic sessions, its
	// membership), spread is the episode's measured arrival spread in
	// seconds, sigma the session's EWMA σ estimate.
	TypeRelease = byte(4)
	// TypePoison (server → client) aborts the session:
	// causeLen(uint16) cause, where cause is the
	// softbarrier.EncodePoisonCause encoding of the poison error.
	TypePoison = byte(5)
	// TypeLeave (client → server) departs gracefully after a release;
	// empty payload. A connection that drops without Leave poisons the
	// session.
	TypeLeave = byte(6)
	// TypeArriveData (client → server) announces arrival with a
	// collective contribution: episode(uint64) dataLen(uint16) data. The
	// data length must match the session op's width; a plain Arrive in a
	// collective session contributes the op's identity instead.
	TypeArriveData = byte(7)
	// TypeResult (server → client) completes a collective episode: the
	// Release payload followed by resultLen(uint16) result, the folded
	// contribution of every participant (deterministic ascending-id fold
	// for non-commutative ops).
	TypeResult = byte(8)
	// TypeShardJoin (leaf → root) registers a leaf barrierd shard as one
	// aggregated participant of a session's inter-shard cohort:
	// version(1) nameLen(uint16) name shards(uint32) id(int32; -1 = root
	// assigns). shards is the session's shard-cohort size, exactly as a
	// JoinReq's p is its client-cohort size; the root answers with a
	// JoinResp.
	TypeShardJoin = byte(9)
	// TypeShardArrive (leaf → root) forwards a leaf's combined arrival at
	// an episode: episode(uint64) localP(uint32) spreadBits(uint64)
	// sigmaBits(uint64) dataLen(uint16) data. localP is how many local
	// clients the leaf combined into this arrival, spread/sigma its local
	// arrival measurements, and data the leaf's locally folded collective
	// contribution (empty for plain sessions).
	TypeShardArrive = byte(10)
	// TypeShardRelease (root → leaf) completes an inter-shard episode:
	// episode(uint64) degree(uint32) shards(uint32) epoch(uint64)
	// spreadBits(uint64) sigmaBits(uint64) fleetP(uint32)
	// resultLen(uint16) result. degree/shards/epoch describe the root
	// tree's next-episode configuration, spread is the measured
	// inter-shard arrival spread, sigma the fleet-wide σ aggregated from
	// the shards' reports, fleetP the fleet-wide participant count, and
	// result the globally folded collective payload (empty for plain
	// sessions).
	TypeShardRelease = byte(11)
)

// ProtocolVersion is the wire-protocol revision this binary speaks. It is
// carried by every handshake frame and checked by the decoder: any other
// value is rejected with a mismatch error naming both revisions, so
// mixed-revision deployments (a leaf and a root built from different
// releases) fail fast and legibly at join time.
const ProtocolVersion = byte(1)

// ErrVersionMismatch is what decoding a handshake frame of another
// protocol revision fails with (wrapped: the message names both
// revisions). It is the one decode failure a server answers, with a
// refusing JoinResp, before hanging up.
var ErrVersionMismatch = errors.New("protocol version mismatch")

// FrameName returns the symbolic name of a frame type for error messages
// and logs, or "type(N)" for an unknown type.
func FrameName(t byte) string {
	switch t {
	case TypeJoinReq:
		return "join-req"
	case TypeJoinResp:
		return "join-resp"
	case TypeArrive:
		return "arrive"
	case TypeRelease:
		return "release"
	case TypePoison:
		return "poison"
	case TypeLeave:
		return "leave"
	case TypeArriveData:
		return "arrive-data"
	case TypeResult:
		return "result"
	case TypeShardJoin:
		return "shard-join"
	case TypeShardArrive:
		return "shard-arrive"
	case TypeShardRelease:
		return "shard-release"
	default:
		return fmt.Sprintf("type(%d)", t)
	}
}

const (
	// MaxName bounds the session-name length in a JoinReq.
	MaxName = 255
	// MaxFrame bounds a frame body; larger length prefixes are rejected
	// before any allocation, so a corrupt peer cannot balloon memory.
	MaxFrame = 1 << 17
	// MaxData bounds the collective payload of an ArriveData or Result
	// frame: the uint16 length prefix caps it at 64KiB−1, comfortably
	// inside MaxFrame even with the largest surrounding header.
	MaxData = 0xffff
	// lenSize is the length-prefix size.
	lenSize = 4
)

// Frame is the decoded form of any protocol frame: Type selects which
// fields are meaningful (see the Type constants). It is 152 bytes, so
// the wire path hands it on by pointer: a FrameConn decodes every frame
// it reads into one Frame of its own (see FrameConn.ReadFrame for how
// long that one, and the bytes its Data and Cause alias, stay valid).
type Frame struct {
	Type    byte
	Version byte    // JoinReq, JoinResp, ShardJoin: protocol revision (encoder always writes ProtocolVersion)
	Name    string  // JoinReq, ShardJoin: session name
	P       int     // JoinReq, JoinResp, Release: participant count; ShardJoin, ShardRelease: shard count; ShardArrive: local participant count
	ID      int     // JoinReq, ShardJoin: requested id (-1 = any); JoinResp: assigned id
	Degree  int     // JoinResp, Release, ShardRelease: current tree degree
	Episode uint64  // JoinResp, Arrive, Release, ShardArrive, ShardRelease: episode index
	Epoch   uint64  // Release, ShardRelease: configuration epoch index
	Spread  float64 // Release, ShardRelease: measured arrival spread; ShardArrive: the leaf's local spread, seconds
	Sigma   float64 // Release, ShardRelease: EWMA σ estimate; ShardArrive: the leaf's local σ, seconds
	FleetP  int     // ShardRelease: fleet-wide participant count across every shard
	Err     string  // JoinResp: refusal reason ("" = accepted)
	Cause   []byte  // Poison: wire-encoded poison cause
	Data    []byte  // ArriveData: contribution; Result: folded result; ShardArrive: leaf-folded contribution; ShardRelease: globally folded result
}

// AppendFrame appends f's complete wire form — length prefix included —
// to dst and returns the result. It errors on unencodable frames
// (unknown type, oversized name/error/cause/data) rather than emitting a
// frame the decoder would reject; every bound is checked before a byte
// is written, so dst is untouched on error.
func AppendFrame(dst []byte, f Frame) ([]byte, error) { return appendFrame(dst, &f) }

// appendFrame is AppendFrame on a frame the caller keeps.
func appendFrame(dst []byte, f *Frame) ([]byte, error) {
	switch f.Type {
	case TypeJoinReq, TypeShardJoin:
		if len(f.Name) > MaxName {
			return nil, fmt.Errorf("wire: %s session name %d bytes exceeds %d", FrameName(f.Type), len(f.Name), MaxName)
		}
	case TypeJoinResp:
		if len(f.Err) > 0xffff {
			return nil, fmt.Errorf("wire: %s error %d bytes exceeds %d", FrameName(f.Type), len(f.Err), 0xffff)
		}
	case TypePoison:
		if len(f.Cause) > 0xffff {
			return nil, fmt.Errorf("wire: %s cause %d bytes exceeds %d", FrameName(f.Type), len(f.Cause), 0xffff)
		}
	case TypeArriveData, TypeResult, TypeShardArrive, TypeShardRelease:
		if len(f.Data) > MaxData {
			return nil, fmt.Errorf("wire: %s payload %d bytes exceeds %d", FrameName(f.Type), len(f.Data), MaxData)
		}
	case TypeArrive, TypeRelease, TypeLeave:
		// fixed-size payloads
	default:
		return nil, fmt.Errorf("wire: cannot encode frame %s", FrameName(f.Type))
	}
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length back-patched below
	dst = append(dst, f.Type)
	switch f.Type {
	case TypeJoinReq, TypeShardJoin:
		dst = append(dst, ProtocolVersion)
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(f.Name)))
		dst = append(dst, f.Name...)
		dst = binary.BigEndian.AppendUint32(dst, uint32(f.P))
		dst = binary.BigEndian.AppendUint32(dst, uint32(int32(f.ID)))
	case TypeJoinResp:
		dst = append(dst, ProtocolVersion)
		dst = binary.BigEndian.AppendUint32(dst, uint32(f.ID))
		dst = binary.BigEndian.AppendUint32(dst, uint32(f.P))
		dst = binary.BigEndian.AppendUint32(dst, uint32(f.Degree))
		dst = binary.BigEndian.AppendUint64(dst, f.Episode)
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(f.Err)))
		dst = append(dst, f.Err...)
	case TypeArrive:
		dst = binary.BigEndian.AppendUint64(dst, f.Episode)
	case TypeRelease:
		dst = binary.BigEndian.AppendUint64(dst, f.Episode)
		dst = binary.BigEndian.AppendUint32(dst, uint32(f.Degree))
		dst = binary.BigEndian.AppendUint32(dst, uint32(f.P))
		dst = binary.BigEndian.AppendUint64(dst, f.Epoch)
		dst = binary.BigEndian.AppendUint64(dst, floatBits(f.Spread))
		dst = binary.BigEndian.AppendUint64(dst, floatBits(f.Sigma))
	case TypePoison:
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(f.Cause)))
		dst = append(dst, f.Cause...)
	case TypeLeave:
		// empty payload
	case TypeArriveData:
		dst = binary.BigEndian.AppendUint64(dst, f.Episode)
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(f.Data)))
		dst = append(dst, f.Data...)
	case TypeResult:
		dst = binary.BigEndian.AppendUint64(dst, f.Episode)
		dst = binary.BigEndian.AppendUint32(dst, uint32(f.Degree))
		dst = binary.BigEndian.AppendUint32(dst, uint32(f.P))
		dst = binary.BigEndian.AppendUint64(dst, f.Epoch)
		dst = binary.BigEndian.AppendUint64(dst, floatBits(f.Spread))
		dst = binary.BigEndian.AppendUint64(dst, floatBits(f.Sigma))
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(f.Data)))
		dst = append(dst, f.Data...)
	case TypeShardArrive:
		dst = binary.BigEndian.AppendUint64(dst, f.Episode)
		dst = binary.BigEndian.AppendUint32(dst, uint32(f.P))
		dst = binary.BigEndian.AppendUint64(dst, floatBits(f.Spread))
		dst = binary.BigEndian.AppendUint64(dst, floatBits(f.Sigma))
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(f.Data)))
		dst = append(dst, f.Data...)
	case TypeShardRelease:
		dst = binary.BigEndian.AppendUint64(dst, f.Episode)
		dst = binary.BigEndian.AppendUint32(dst, uint32(f.Degree))
		dst = binary.BigEndian.AppendUint32(dst, uint32(f.P))
		dst = binary.BigEndian.AppendUint64(dst, f.Epoch)
		dst = binary.BigEndian.AppendUint64(dst, floatBits(f.Spread))
		dst = binary.BigEndian.AppendUint64(dst, floatBits(f.Sigma))
		dst = binary.BigEndian.AppendUint32(dst, uint32(f.FleetP))
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(f.Data)))
		dst = append(dst, f.Data...)
	}
	body := len(dst) - start - lenSize
	if body > MaxFrame {
		return nil, fmt.Errorf("wire: %s body %d bytes exceeds %d", FrameName(f.Type), body, MaxFrame)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(body))
	return dst, nil
}

// DecodeFrame decodes one frame body (the bytes after the length prefix).
// Every length field is validated against the actual payload, and frames
// with trailing garbage are rejected, so a frame that decodes is exactly
// a frame AppendFrame could have produced.
func DecodeFrame(body []byte) (Frame, error) {
	var f Frame
	if err := decodeFrame(&f, body); err != nil {
		return Frame{}, err
	}
	return f, nil
}

// decodeFrame is DecodeFrame into a frame the caller owns. Name and Err
// are copied out of body; Data and Cause alias it. On error *f holds
// whatever was decoded before the bad field.
func decodeFrame(f *Frame, body []byte) error {
	if len(body) == 0 {
		return fmt.Errorf("wire: empty frame body")
	}
	if len(body) > MaxFrame {
		return fmt.Errorf("wire: frame body %d bytes exceeds %d", len(body), MaxFrame)
	}
	*f = Frame{Type: body[0]}
	b := body[1:]
	switch f.Type {
	case TypeJoinReq, TypeShardJoin:
		var err error
		if b, err = checkVersion(f.Type, b); err != nil {
			return err
		}
		f.Version = ProtocolVersion
		n, rest, err := lengthPrefixed(b, "session name", MaxName)
		if err != nil {
			return err
		}
		if len(rest) != 8 {
			return fmt.Errorf("wire: %s wants 8 trailing bytes, has %d", FrameName(f.Type), len(rest))
		}
		f.Name = string(n)
		f.P = int(binary.BigEndian.Uint32(rest))
		f.ID = int(int32(binary.BigEndian.Uint32(rest[4:])))
	case TypeJoinResp:
		var err error
		if b, err = checkVersion(f.Type, b); err != nil {
			return err
		}
		f.Version = ProtocolVersion
		if len(b) < 22 {
			return fmt.Errorf("wire: join response wants ≥ 22 bytes, has %d", len(b))
		}
		f.ID = int(binary.BigEndian.Uint32(b))
		f.P = int(binary.BigEndian.Uint32(b[4:]))
		f.Degree = int(binary.BigEndian.Uint32(b[8:]))
		f.Episode = binary.BigEndian.Uint64(b[12:])
		e, rest, err := lengthPrefixed(b[20:], "join error", 0xffff)
		if err != nil {
			return err
		}
		if len(rest) != 0 {
			return fmt.Errorf("wire: %d trailing bytes after join response", len(rest))
		}
		f.Err = string(e)
	case TypeArrive:
		if len(b) != 8 {
			return fmt.Errorf("wire: arrive wants 8 bytes, has %d", len(b))
		}
		f.Episode = binary.BigEndian.Uint64(b)
	case TypeRelease:
		if len(b) != 40 {
			return fmt.Errorf("wire: release wants 40 bytes, has %d", len(b))
		}
		f.Episode = binary.BigEndian.Uint64(b)
		f.Degree = int(binary.BigEndian.Uint32(b[8:]))
		f.P = int(binary.BigEndian.Uint32(b[12:]))
		f.Epoch = binary.BigEndian.Uint64(b[16:])
		f.Spread = bitsFloat(binary.BigEndian.Uint64(b[24:]))
		f.Sigma = bitsFloat(binary.BigEndian.Uint64(b[32:]))
	case TypePoison:
		c, rest, err := lengthPrefixed(b, "poison cause", 0xffff)
		if err != nil {
			return err
		}
		if len(rest) != 0 {
			return fmt.Errorf("wire: %d trailing bytes after poison", len(rest))
		}
		f.Cause = c
	case TypeLeave:
		if len(b) != 0 {
			return fmt.Errorf("wire: leave wants no payload, has %d bytes", len(b))
		}
	case TypeArriveData:
		if len(b) < 8 {
			return fmt.Errorf("wire: %s wants ≥ 8 bytes, has %d", FrameName(f.Type), len(b))
		}
		f.Episode = binary.BigEndian.Uint64(b)
		d, rest, err := lengthPrefixed(b[8:], "arrive-data payload", MaxData)
		if err != nil {
			return err
		}
		if len(rest) != 0 {
			return fmt.Errorf("wire: %d trailing bytes after %s", len(rest), FrameName(f.Type))
		}
		f.Data = d
	case TypeResult:
		if len(b) < 40 {
			return fmt.Errorf("wire: %s wants ≥ 40 bytes, has %d", FrameName(f.Type), len(b))
		}
		f.Episode = binary.BigEndian.Uint64(b)
		f.Degree = int(binary.BigEndian.Uint32(b[8:]))
		f.P = int(binary.BigEndian.Uint32(b[12:]))
		f.Epoch = binary.BigEndian.Uint64(b[16:])
		f.Spread = bitsFloat(binary.BigEndian.Uint64(b[24:]))
		f.Sigma = bitsFloat(binary.BigEndian.Uint64(b[32:]))
		d, rest, err := lengthPrefixed(b[40:], "result payload", MaxData)
		if err != nil {
			return err
		}
		if len(rest) != 0 {
			return fmt.Errorf("wire: %d trailing bytes after %s", len(rest), FrameName(f.Type))
		}
		f.Data = d
	case TypeShardArrive:
		if len(b) < 28 {
			return fmt.Errorf("wire: %s wants ≥ 28 bytes, has %d", FrameName(f.Type), len(b))
		}
		f.Episode = binary.BigEndian.Uint64(b)
		f.P = int(binary.BigEndian.Uint32(b[8:]))
		f.Spread = bitsFloat(binary.BigEndian.Uint64(b[12:]))
		f.Sigma = bitsFloat(binary.BigEndian.Uint64(b[20:]))
		d, rest, err := lengthPrefixed(b[28:], "shard-arrive payload", MaxData)
		if err != nil {
			return err
		}
		if len(rest) != 0 {
			return fmt.Errorf("wire: %d trailing bytes after %s", len(rest), FrameName(f.Type))
		}
		f.Data = d
	case TypeShardRelease:
		if len(b) < 44 {
			return fmt.Errorf("wire: %s wants ≥ 44 bytes, has %d", FrameName(f.Type), len(b))
		}
		f.Episode = binary.BigEndian.Uint64(b)
		f.Degree = int(binary.BigEndian.Uint32(b[8:]))
		f.P = int(binary.BigEndian.Uint32(b[12:]))
		f.Epoch = binary.BigEndian.Uint64(b[16:])
		f.Spread = bitsFloat(binary.BigEndian.Uint64(b[24:]))
		f.Sigma = bitsFloat(binary.BigEndian.Uint64(b[32:]))
		f.FleetP = int(binary.BigEndian.Uint32(b[40:]))
		d, rest, err := lengthPrefixed(b[44:], "shard-release payload", MaxData)
		if err != nil {
			return err
		}
		if len(rest) != 0 {
			return fmt.Errorf("wire: %d trailing bytes after %s", len(rest), FrameName(f.Type))
		}
		f.Data = d
	default:
		return fmt.Errorf("wire: unknown frame %s", FrameName(f.Type))
	}
	return nil
}

// checkVersion consumes the leading protocol-version byte of a handshake
// frame, rejecting any revision other than the one this binary speaks.
// The mismatch error is deliberately explicit: it is the one diagnostic a
// mixed-revision deployment (say, a leaf barrierd from one release joined
// to a root from another) gets before the connection is torn down.
func checkVersion(t byte, b []byte) ([]byte, error) {
	if len(b) < 1 {
		return nil, fmt.Errorf("wire: %s missing protocol version byte", FrameName(t))
	}
	if b[0] != ProtocolVersion {
		return nil, fmt.Errorf("wire: %w: peer's %s speaks v%d, this binary speaks v%d — both ends must run the same protocol revision", ErrVersionMismatch, FrameName(t), b[0], ProtocolVersion)
	}
	return b[1:], nil
}

// lengthPrefixed splits a uint16-length-prefixed field off b, enforcing
// the field-specific maximum.
func lengthPrefixed(b []byte, what string, max int) (field, rest []byte, err error) {
	if len(b) < 2 {
		return nil, nil, fmt.Errorf("wire: truncated %s length", what)
	}
	n := int(binary.BigEndian.Uint16(b))
	if n > max {
		return nil, nil, fmt.Errorf("wire: %s %d bytes exceeds %d", what, n, max)
	}
	if len(b)-2 < n {
		return nil, nil, fmt.Errorf("wire: truncated %s (%d of %d bytes)", what, len(b)-2, n)
	}
	return b[2 : 2+n], b[2+n:], nil
}
