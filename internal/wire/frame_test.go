package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

// sampleFrames covers every frame type with representative field values,
// including edge cases (empty strings, negative ids, NaN floats).
func sampleFrames() []Frame {
	return []Frame{
		{Type: TypeJoinReq, Version: ProtocolVersion, Name: "sor-sweep", P: 64, ID: -1},
		{Type: TypeJoinReq, Version: ProtocolVersion, Name: "x", P: 1, ID: 0},
		{Type: TypeJoinResp, Version: ProtocolVersion, ID: 7, P: 64, Degree: 4, Episode: 12},
		{Type: TypeJoinResp, Version: ProtocolVersion, Err: "session is full"},
		{Type: TypeShardJoin, Version: ProtocolVersion, Name: "fleet", P: 4, ID: -1},
		{Type: TypeShardJoin, Version: ProtocolVersion, Name: "s", P: 1, ID: 0},
		{Type: TypeShardArrive, Episode: 17, P: 64, Spread: 1.5e-4, Sigma: 2.5e-4, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{Type: TypeShardArrive, Episode: 1<<63 - 1, P: 1, Spread: math.NaN(), Sigma: math.Inf(1), Data: []byte{}},
		{Type: TypeShardRelease, Episode: 17, Degree: 2, P: 4, Epoch: 3, Spread: 1.5e-4, Sigma: 2.5e-4, FleetP: 256, Data: []byte{0xca, 0xfe}},
		{Type: TypeShardRelease, Episode: 0, Degree: 2, P: 1, FleetP: 1, Spread: math.Inf(-1), Sigma: math.NaN(), Data: []byte{}},
		{Type: TypeArrive, Episode: 0},
		{Type: TypeArrive, Episode: 1<<63 - 1},
		{Type: TypeRelease, Episode: 999, Degree: 64, P: 128, Epoch: 7, Spread: 3.25e-4, Sigma: 2.5e-4},
		{Type: TypeRelease, Episode: 0, Degree: 2, P: 2, Epoch: 0, Spread: math.NaN(), Sigma: math.Inf(1)},
		{Type: TypePoison, Cause: []byte{0x01}},
		{Type: TypePoison, Cause: []byte{}},
		{Type: TypeLeave},
		{Type: TypeArriveData, Episode: 3, Data: []byte{0, 0, 0, 0, 0, 0, 0, 42}},
		{Type: TypeArriveData, Episode: 1<<63 - 1, Data: []byte{}},
		{Type: TypeResult, Episode: 999, Degree: 4, P: 64, Epoch: 7, Spread: 3.25e-4, Sigma: 2.5e-4, Data: []byte{0xde, 0xad, 0xbe, 0xef}},
		{Type: TypeResult, Episode: 0, Degree: 2, P: 2, Spread: math.NaN(), Sigma: math.Inf(-1), Data: bytes.Repeat([]byte{7}, 128)},
	}
}

// framesEqual compares frames treating float fields by bit pattern (NaN ==
// NaN on the wire) and nil/empty byte slices as equal.
func framesEqual(a, b Frame) bool {
	if a.Type != b.Type || a.Version != b.Version || a.Name != b.Name ||
		a.P != b.P || a.ID != b.ID || a.FleetP != b.FleetP ||
		a.Degree != b.Degree || a.Episode != b.Episode || a.Epoch != b.Epoch ||
		a.Err != b.Err {
		return false
	}
	if math.Float64bits(a.Spread) != math.Float64bits(b.Spread) ||
		math.Float64bits(a.Sigma) != math.Float64bits(b.Sigma) {
		return false
	}
	return bytes.Equal(a.Cause, b.Cause) && bytes.Equal(a.Data, b.Data)
}

func TestFrameRoundTrip(t *testing.T) {
	for _, f := range sampleFrames() {
		buf, err := AppendFrame(nil, f)
		if err != nil {
			t.Fatalf("encode %+v: %v", f, err)
		}
		fp, err := NewFrameConn(&streamConn{r: bytes.NewReader(buf)}).ReadFrame()
		if err != nil {
			t.Fatalf("read back %+v: %v", f, err)
		}
		got, want := *fp, f
		if want.Cause != nil && len(want.Cause) == 0 {
			want.Cause = nil // empty and absent cause are the same frame
		}
		if got.Cause != nil && len(got.Cause) == 0 {
			got.Cause = nil
		}
		if !framesEqual(got, want) {
			t.Errorf("round trip changed frame:\n  sent %+v\n  got  %+v", f, got)
		}
	}
}

// TestWriteFrameMatchesAppendFrame pins the write half: the bytes a
// FrameConn puts on its Conn are AppendFrame's, handed over in one Write
// per frame.
func TestWriteFrameMatchesAppendFrame(t *testing.T) {
	conn := &streamConn{}
	fc := NewFrameConn(conn)
	for i, f := range sampleFrames() {
		want, err := AppendFrame(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		conn.w.Reset()
		if err := fc.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(conn.w.Bytes(), want) {
			t.Errorf("WriteFrame and AppendFrame disagree for type %d", f.Type)
		}
		if conn.writes != i+1 {
			t.Fatalf("%d Write calls for %d frames, want one each", conn.writes, i+1)
		}
	}
}

func TestDecodeFrameRejects(t *testing.T) {
	cases := map[string][]byte{
		"empty body":                  {},
		"unknown type":                {42},
		"truncated join name":         {TypeJoinReq, 0},
		"join name overruns":          {TypeJoinReq, 0, 5, 'a', 'b'},
		"join missing p/id":           {TypeJoinReq, 0, 1, 'a', 0, 0},
		"join trailing garbage":       {TypeJoinReq, 0, 0, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff, 9},
		"arrive short":                {TypeArrive, 1, 2, 3},
		"arrive long":                 {TypeArrive, 1, 2, 3, 4, 5, 6, 7, 8, 9},
		"release short":               {TypeRelease, 0},
		"leave with payload":          {TypeLeave, 1},
		"poison truncated cause":      {TypePoison, 0, 9, 1},
		"joinresp short":              {TypeJoinResp, 0, 0, 0, 1},
		"arrive-data short":           {TypeArriveData, 1, 2, 3},
		"arrive-data truncated len":   {TypeArriveData, 0, 0, 0, 0, 0, 0, 0, 0, 7},
		"arrive-data payload overrun": {TypeArriveData, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9, 1, 2},
		"arrive-data trailing":        append(mustEncodeBody(Frame{Type: TypeArriveData, Episode: 1, Data: []byte{5}}), 0xff),
		"result short":                {TypeResult, 1, 2, 3},
		"result truncated len":        append(append([]byte{TypeResult}, make([]byte, 40)...), 0, 9),
		"result trailing":             append(mustEncodeBody(Frame{Type: TypeResult, Data: []byte{5}}), 0xff),
		"shard-join no version":       {TypeShardJoin},
		"shard-join truncated name":   {TypeShardJoin, ProtocolVersion, 0},
		"shard-join missing id":       {TypeShardJoin, ProtocolVersion, 0, 1, 's', 0, 0},
		"shard-arrive short":          {TypeShardArrive, 1, 2, 3},
		"shard-arrive truncated len":  append(append([]byte{TypeShardArrive}, make([]byte, 28)...), 0, 9),
		"shard-arrive trailing":       append(mustEncodeBody(Frame{Type: TypeShardArrive, Episode: 1, Data: []byte{5}}), 0xff),
		"shard-release short":         {TypeShardRelease, 1, 2, 3},
		"shard-release truncated len": append(append([]byte{TypeShardRelease}, make([]byte, 44)...), 0, 9),
		"shard-release trailing":      append(mustEncodeBody(Frame{Type: TypeShardRelease, Data: []byte{5}}), 0xff),
	}
	for name, body := range cases {
		if _, err := DecodeFrame(body); err == nil {
			t.Errorf("%s: decode accepted %v", name, body)
		}
	}
}

// mustEncodeBody returns f's encoded body (without the length prefix) for
// building corrupt variants.
func mustEncodeBody(f Frame) []byte {
	buf, err := AppendFrame(nil, f)
	if err != nil {
		panic(err)
	}
	return buf[lenSize:]
}

// TestProtocolVersionMismatch pins the fail-fast contract for
// mixed-revision deployments: a handshake frame carrying any revision
// other than ProtocolVersion is rejected with an error naming both
// revisions, never mis-decoded into a plausible-looking frame.
func TestProtocolVersionMismatch(t *testing.T) {
	for _, typ := range []byte{TypeJoinReq, TypeJoinResp, TypeShardJoin} {
		var good Frame
		switch typ {
		case TypeJoinReq, TypeShardJoin:
			good = Frame{Type: typ, Name: "s", P: 2, ID: -1}
		case TypeJoinResp:
			good = Frame{Type: typ, ID: 1, P: 2, Degree: 2, Episode: 3}
		}
		body := mustEncodeBody(good)
		if body[1] != ProtocolVersion {
			t.Fatalf("%s: version byte not at offset 1", FrameName(typ))
		}
		body[1] = ProtocolVersion + 1
		_, err := DecodeFrame(body)
		if !errors.Is(err, ErrVersionMismatch) {
			t.Fatalf("%s: future-revision frame decoded with %v, want ErrVersionMismatch", FrameName(typ), err)
		}
		msg := err.Error()
		for _, want := range []string{"version mismatch",
			fmt.Sprintf("v%d", ProtocolVersion+1), fmt.Sprintf("v%d", ProtocolVersion)} {
			if !strings.Contains(msg, want) {
				t.Errorf("%s: mismatch error %q does not mention %q", FrameName(typ), msg, want)
			}
		}
	}
	// Episode frames carry no version byte: the handshake already
	// established it, and the hot path should not pay for re-checking.
	body := mustEncodeBody(Frame{Type: TypeArrive, Episode: 5})
	if got, err := DecodeFrame(body); err != nil || got.Episode != 5 {
		t.Fatalf("arrive decode = %+v, %v", got, err)
	}
}

// TestDecodeFrameErrorsNameTypes pins the symbolic frame names in decoder
// and encoder errors: diagnostics must say "arrive-data", not "type 7".
func TestDecodeFrameErrorsNameTypes(t *testing.T) {
	if got := FrameName(TypeArriveData); got != "arrive-data" {
		t.Fatalf("FrameName(TypeArriveData) = %q", got)
	}
	if got := FrameName(200); got != "type(200)" {
		t.Fatalf("FrameName(200) = %q", got)
	}
	for _, tc := range []struct {
		body []byte
		want string
	}{
		{[]byte{TypeArriveData, 1}, "arrive-data"},
		{[]byte{TypeResult, 1}, "result"},
		{[]byte{200}, "type(200)"},
	} {
		_, err := DecodeFrame(tc.body)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("decode %v: error %q does not name %q", tc.body, err, tc.want)
		}
	}
	_, err := AppendFrame(nil, Frame{Type: TypeResult, Data: make([]byte, MaxData+1)})
	if err == nil || !strings.Contains(err.Error(), "result") {
		t.Errorf("oversize result encode error %q does not name the frame", err)
	}
}

// TestReadFrameBoundsLength: a length prefix of 0 or past MaxFrame is
// rejected before the read buffer grows, so a corrupt peer costs no memory.
func TestReadFrameBoundsLength(t *testing.T) {
	for _, n := range []uint32{0, MaxFrame + 1, 1<<32 - 1} {
		hdr := binary.BigEndian.AppendUint32(nil, n)
		fc := NewFrameConn(&streamConn{r: bytes.NewReader(append(hdr, make([]byte, 64)...))})
		before := cap(fc.rbuf)
		if _, err := fc.ReadFrame(); err == nil || !strings.Contains(err.Error(), "frame length") {
			t.Fatalf("length prefix %d not rejected: %v", n, err)
		}
		if cap(fc.rbuf) != before {
			t.Fatalf("length prefix %d grew the read buffer %d → %d bytes", n, before, cap(fc.rbuf))
		}
	}
}

// FuzzDecodeFrame asserts the decoder is total (no panics, no
// out-of-bounds) and canonical: any body that decodes re-encodes to a
// frame that decodes to the same value.
func FuzzDecodeFrame(f *testing.F) {
	for _, fr := range sampleFrames() {
		buf, err := AppendFrame(nil, fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf[lenSize:]) // seed with the body, which is what DecodeFrame sees
	}
	f.Add([]byte{})
	f.Add([]byte{TypeJoinReq, 0xff, 0xff})
	f.Add([]byte{TypePoison, 0, 3, 2, 0, 1})
	f.Add([]byte{TypeJoinReq, ProtocolVersion + 1, 0, 1, 'a', 0, 0, 0, 2, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{TypeShardJoin, ProtocolVersion, 0xff, 0xff})
	f.Add([]byte{TypeShardArrive, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9})
	f.Fuzz(func(t *testing.T, body []byte) {
		fr, err := DecodeFrame(body)
		if err != nil {
			return
		}
		buf, err := AppendFrame(nil, fr)
		if err != nil {
			t.Fatalf("decoded frame %+v does not re-encode: %v", fr, err)
		}
		again, err := DecodeFrame(buf[lenSize:])
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if !framesEqual(fr, again) {
			t.Fatalf("decode/encode/decode not stable:\n  first  %+v\n  second %+v", fr, again)
		}
	})
}

// TestFrameEncodeRejectsOversize pins the encoder-side limits the decoder
// enforces, so an unencodable frame can never be produced in the first
// place.
func TestFrameEncodeRejectsOversize(t *testing.T) {
	if _, err := AppendFrame(nil, Frame{Type: TypeJoinReq, Name: strings.Repeat("n", MaxName+1)}); err == nil {
		t.Error("oversized session name encoded")
	}
	if _, err := AppendFrame(nil, Frame{Type: TypePoison, Cause: make([]byte, 1<<16)}); err == nil {
		t.Error("oversized poison cause encoded")
	}
	if _, err := AppendFrame(nil, Frame{Type: 99}); err == nil {
		t.Error("unknown frame type encoded")
	}
	// Oversize collective payloads are refused before a byte is encoded.
	dst := []byte{0xAA}
	if _, err := AppendFrame(dst, Frame{Type: TypeArriveData, Data: make([]byte, MaxData+1)}); err == nil {
		t.Error("oversized arrive-data payload encoded")
	}
	if _, err := AppendFrame(dst, Frame{Type: TypeResult, Data: make([]byte, MaxData+1)}); err == nil {
		t.Error("oversized result payload encoded")
	}
	if len(dst) != 1 || dst[0] != 0xAA {
		t.Error("rejected encode mutated dst")
	}
}
