package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

// streamConn is the Conn under a FrameConn in these tests: reads come
// from r, writes are kept whole in w and counted. Anything else a Conn
// can do panics on the nil embedded interface.
type streamConn struct {
	Conn
	r      io.Reader
	w      bytes.Buffer
	writes int
}

func (c *streamConn) Read(p []byte) (int, error) { return c.r.Read(p) }
func (c *streamConn) Write(p []byte) (int, error) {
	c.writes++
	return c.w.Write(p)
}

// chunkReader delivers r in reads of 1..max bytes drawn from rng.
type chunkReader struct {
	r   io.Reader
	rng *rand.Rand
	max int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if n := 1 + c.rng.Intn(c.max); n < len(p) {
		p = p[:n]
	}
	return c.r.Read(p)
}

// readerFrames is sampleFrames plus the sizes the read buffer has to
// move for: a JoinReq of 271 bytes, the first growth past the 256 it
// starts with, and an ArriveData and a Result of MaxData bytes each, with
// small frames around them so the big ones are met with bytes unread.
func readerFrames() []Frame {
	big := bytes.Repeat([]byte{0xa5, 0x5a, 0x0f}, MaxData/3)
	return append(sampleFrames(),
		Frame{Type: TypeJoinReq, Version: ProtocolVersion, Name: strings.Repeat("n", MaxName), P: 2, ID: 1},
		Frame{Type: TypeArrive, Episode: 40},
		Frame{Type: TypeArriveData, Episode: 41, Data: big},
		Frame{Type: TypeArrive, Episode: 42},
		Frame{Type: TypeResult, Episode: 43, Degree: 2, P: 2, Data: big},
		Frame{Type: TypeLeave},
	)
}

// encodeStream returns the frames' wire form back to back, and the
// offset each frame ends at.
func encodeStream(t testing.TB, frames []Frame) (stream []byte, ends []int) {
	for _, f := range frames {
		var err error
		if stream, err = AppendFrame(stream, f); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, len(stream))
	}
	return stream, ends
}

// TestFrameReaderAnyChunking: however the Conn cuts the stream up — a
// byte a Read, as much as the buffer takes, seeded random pieces — the
// reader yields the frames that were written.
func TestFrameReaderAnyChunking(t *testing.T) {
	frames := readerFrames()
	stream, _ := encodeStream(t, frames)
	if n := lenSize + 1 + 1 + 2 + MaxName + 8; n != 271 {
		t.Fatalf("the long JoinReq is %d bytes, want 271", n)
	}
	chunkings := map[string]func() io.Reader{
		"one byte a read": func() io.Reader { return iotest.OneByteReader(bytes.NewReader(stream)) },
		"all there is":    func() io.Reader { return bytes.NewReader(stream) },
		"random ≤ 7":      func() io.Reader { return &chunkReader{bytes.NewReader(stream), rand.New(rand.NewSource(1)), 7} },
		"random ≤ 300":    func() io.Reader { return &chunkReader{bytes.NewReader(stream), rand.New(rand.NewSource(2)), 300} },
		"random ≤ 100000": func() io.Reader { return &chunkReader{bytes.NewReader(stream), rand.New(rand.NewSource(3)), 100000} },
	}
	for name, open := range chunkings {
		fc := NewFrameConn(&streamConn{r: open()})
		for i, want := range frames {
			got, err := fc.ReadFrame()
			if err != nil {
				t.Fatalf("%s: frame %d: %v", name, i, err)
			}
			if !framesEqual(*got, want) {
				t.Fatalf("%s: frame %d = %s episode %d (%d data bytes), want %s episode %d (%d)", name, i,
					FrameName(got.Type), got.Episode, len(got.Data), FrameName(want.Type), want.Episode, len(want.Data))
			}
		}
		if _, err := fc.ReadFrame(); err != io.EOF {
			t.Fatalf("%s: after the last frame: %v, want io.EOF", name, err)
		}
		if len(fc.rbuf) != lenSize+MaxData+43 {
			t.Fatalf("%s: read buffer ended at %d bytes, want exactly the largest frame's %d", name, len(fc.rbuf), lenSize+MaxData+43)
		}
	}
}

// TestFrameReaderEOFOnlyAtFrameBoundary cuts the stream short at every
// offset (every offset near a boundary and a stride between, inside the
// two 64 KiB frames): the frames before the cut are read, and what ends
// the stream is io.EOF exactly when the cut is on a frame boundary and
// io.ErrUnexpectedEOF when it is inside a frame, header or body.
func TestFrameReaderEOFOnlyAtFrameBoundary(t *testing.T) {
	stream, ends := encodeStream(t, readerFrames())
	check := func(cut int) {
		fc := NewFrameConn(&streamConn{r: bytes.NewReader(stream[:cut])})
		frames := 0
		var err error
		for err == nil {
			if _, err = fc.ReadFrame(); err == nil {
				frames++
			}
		}
		whole := sort.SearchInts(ends, cut+1) // frames that end at or before the cut
		want := io.ErrUnexpectedEOF
		if cut == 0 || (whole > 0 && ends[whole-1] == cut) {
			want = io.EOF
		}
		if frames != whole || err != want {
			t.Fatalf("cut at %d: %d frames then %v, want %d then %v", cut, frames, err, whole, want)
		}
	}
	prev := 0
	for _, e := range ends {
		for cut := prev; cut <= e; cut++ {
			check(cut)
			if cut >= prev+300 && cut+1021 < e-300 {
				cut += 1020 // inside a 64 KiB payload every offset is the same case
			}
		}
		prev = e
	}
}

// TestFrameDataIntactUntilNextReadIsIssued is the alias rule: what
// ReadFrame returns — the connection's one Frame, and the buffer bytes
// its Data aliases — is frame k's for as long as the caller does not read
// again, whatever already lies behind it in the buffer; the next read
// hands out the same Frame. Fifty 114-byte frames through a 256-byte
// buffer cross every reset and compaction the reader does.
func TestFrameDataIntactUntilNextReadIsIssued(t *testing.T) {
	var frames []Frame
	for i := 0; i < 50; i++ {
		frames = append(frames, Frame{Type: TypeArriveData, Episode: uint64(i), Data: bytes.Repeat([]byte{byte(i + 1)}, 100)})
	}
	stream, _ := encodeStream(t, frames)
	for _, max := range []int{len(stream), 150, 9} {
		fc := NewFrameConn(&streamConn{r: &chunkReader{bytes.NewReader(stream), rand.New(rand.NewSource(4)), max}})
		var last *Frame
		for i, want := range frames {
			f, err := fc.ReadFrame()
			if err != nil {
				t.Fatal(err)
			}
			if last != nil && f != last {
				t.Fatal("ReadFrame returned a second Frame: a connection has one")
			}
			last = f
			if f.Episode != want.Episode || !bytes.Equal(f.Data, want.Data) {
				t.Fatalf("chunks ≤ %d: frame %d read as episode %d, data %x…", max, i, f.Episode, f.Data[:4])
			}
		}
	}
}

// TestFrameConnWarmZeroAllocs: once its buffers have met the connection's
// frames, a FrameConn writes and reads them without allocating — the
// contract every per-connection loop in the stack runs on.
func TestFrameConnWarmZeroAllocs(t *testing.T) {
	loop := &streamConn{}
	loop.r = &loop.w // reads give back what was written
	fc := NewFrameConn(loop)
	frames := []Frame{
		{Type: TypeArrive, Episode: 7},
		{Type: TypeRelease, Episode: 7, Degree: 4, P: 8, Epoch: 2, Spread: 1e-4, Sigma: 2e-4},
		{Type: TypeArriveData, Episode: 8, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{Type: TypeResult, Episode: 8, Degree: 4, P: 8, Data: make([]byte, 300)},
	}
	pass := func() {
		for _, f := range frames {
			if err := fc.WriteFrame(f); err != nil {
				t.Fatal(err)
			}
			if got, err := fc.ReadFrame(); err != nil || got.Type != f.Type || got.Episode != f.Episode || !bytes.Equal(got.Data, f.Data) {
				t.Fatalf("read back %+v, %v", got, err)
			}
		}
	}
	pass() // grows rbuf past the Result, wbuf and the loop's buffer
	if avg := testing.AllocsPerRun(100, pass); avg != 0 {
		t.Fatalf("a warm FrameConn allocated %.2f times per %d frames written and read, want 0", avg, len(frames))
	}
}

// FuzzFrameReader feeds the reader an arbitrary stream in arbitrary
// pieces. It must never panic and never hold more than one maximal frame,
// and must yield exactly what DecodeFrame yields on each length-delimited
// piece of the stream: the same frame, the same decode error (after which
// it carries on with the next piece, as a connection handler could), the
// bound error on a bad length, and the right end-of-stream error.
func FuzzFrameReader(f *testing.F) {
	seeds, _ := filepath.Glob("testdata/fuzz/FuzzDecodeFrame/*")
	var all []byte
	for _, path := range seeds {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		_, lit, _ := strings.Cut(string(raw), "[]byte(")
		body, err := strconv.Unquote(strings.TrimSuffix(strings.TrimSpace(lit), ")"))
		if err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		piece := append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
		f.Add(piece, uint64(len(all)))
		all = append(all, piece...)
	}
	if len(seeds) < 20 {
		f.Fatalf("only %d seeds under testdata/fuzz/FuzzDecodeFrame", len(seeds))
	}
	f.Add(all, uint64(1))
	f.Add(all[:len(all)-3], uint64(2))
	f.Add(binary.BigEndian.AppendUint32(nil, MaxFrame+1), uint64(3))
	f.Fuzz(func(t *testing.T, stream []byte, chunking uint64) {
		rng := rand.New(rand.NewSource(int64(chunking)))
		fc := NewFrameConn(&streamConn{r: &chunkReader{bytes.NewReader(stream), rng, 1 + int(chunking%512)}})
		for rest := stream; ; {
			got, err := fc.ReadFrame()
			if len(fc.rbuf) > lenSize+MaxFrame {
				t.Fatalf("read buffer holds %d bytes", len(fc.rbuf))
			}
			if len(rest) < lenSize {
				want := io.ErrUnexpectedEOF
				if len(rest) == 0 {
					want = io.EOF
				}
				if err != want {
					t.Fatalf("%d bytes left: %v, want %v", len(rest), err, want)
				}
				return
			}
			n := int(binary.BigEndian.Uint32(rest))
			switch {
			case n == 0 || n > MaxFrame:
				if err == nil || !strings.Contains(err.Error(), "frame length") {
					t.Fatalf("length %d: %v", n, err)
				}
				return
			case len(rest) < lenSize+n:
				if err != io.ErrUnexpectedEOF {
					t.Fatalf("%d of %d body bytes: %v, want io.ErrUnexpectedEOF", len(rest)-lenSize, n, err)
				}
				return
			}
			want, wantErr := DecodeFrame(rest[lenSize : lenSize+n])
			rest = rest[lenSize+n:]
			switch {
			case wantErr != nil && (err == nil || err.Error() != wantErr.Error()):
				t.Fatalf("reader: %v, DecodeFrame: %v", err, wantErr)
			case wantErr == nil && (err != nil || !framesEqual(*got, want)):
				t.Fatalf("reader: %+v, %v; DecodeFrame: %+v", got, err, want)
			}
		}
	})
}
