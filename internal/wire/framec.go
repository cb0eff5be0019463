package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"
)

// FrameConn is one peer's framed view of a Conn, and the repository's
// only frame reader: the netbarrier client, the server's per-connection
// read loop and the shardbarrier leaf→root link all run on it. Each frame
// is copied once in each direction — read from the Conn into rbuf and
// decoded where it lies, encoded into wbuf and written from there — and
// the steady state of both paths allocates nothing.
//
// A FrameConn is not one lock's worth of state but two independent
// halves. The read half (ReadFrame, SetReadDeadline) and the write half
// (WriteFrame and friends) share no buffers, so one goroutine may own
// each half — the leaf link runs exactly that split, its reader
// completing episodes while the session's releaser writes. Neither half
// tolerates two concurrent users; callers serialize per half.
//
// Size (unsafe.Sizeof, amd64): 232 bytes with the Frame inline, which
// the allocator rounds to its 240-byte class; the 256-byte rbuf is the
// connection's only other allocation until a larger frame arrives.
type FrameConn struct {
	conn Conn

	// Read half: rbuf[r:w] is read and not yet decoded; frame is the one
	// Frame every ReadFrame fills and returns.
	rbuf  []byte
	r, w  int
	frame Frame

	wbuf []byte // write half: reusable encode scratch
}

// NewFrameConn wraps an established connection.
func NewFrameConn(conn Conn) *FrameConn {
	return &FrameConn{conn: conn, rbuf: make([]byte, 256)}
}

// ReadFrame reads and decodes the next frame into the connection's own
// Frame and returns a pointer to it. The Frame, and the bytes of rbuf its
// Data and Cause alias, are valid until the next ReadFrame on this
// connection; retain by copying (Name and Err are copies already). At
// the end of the stream the error is io.EOF on a frame boundary and
// io.ErrUnexpectedEOF anywhere inside a frame.
func (fc *FrameConn) ReadFrame() (*Frame, error) {
	if err := fc.fill(lenSize); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(fc.rbuf[fc.r:]))
	if n == 0 || n > MaxFrame {
		return nil, fmt.Errorf("wire: frame length %d outside (0, %d]", n, MaxFrame)
	}
	// Only a length that passed the bound grows the buffer, to exactly
	// this frame: a corrupt prefix costs no memory, a session's largest
	// frame one allocation.
	if need := lenSize + n; need > len(fc.rbuf) {
		grown := make([]byte, need)
		fc.w = copy(grown, fc.rbuf[fc.r:fc.w])
		fc.r, fc.rbuf = 0, grown
	}
	if err := fc.fill(lenSize + n); err != nil {
		return nil, err
	}
	body := fc.rbuf[fc.r+lenSize : fc.r+lenSize+n]
	fc.r += lenSize + n
	if err := decodeFrame(&fc.frame, body); err != nil {
		return nil, err
	}
	return &fc.frame, nil
}

// fill reads from the Conn until n unread bytes lie contiguous in rbuf
// (n ≤ len(rbuf)), taking whatever else the Conn has ready up to the end
// of the buffer. The read position returns to the start when nothing is
// unread, and the unread tail is moved there when n bytes would not fit
// behind it. A stream that ends with nothing unread is io.EOF; one that
// ends short of n is io.ErrUnexpectedEOF.
func (fc *FrameConn) fill(n int) error {
	for fc.w-fc.r < n {
		switch {
		case fc.r == fc.w:
			fc.r, fc.w = 0, 0
		case fc.r+n > len(fc.rbuf):
			fc.w = copy(fc.rbuf, fc.rbuf[fc.r:fc.w])
			fc.r = 0
		}
		m, err := fc.conn.Read(fc.rbuf[fc.w:])
		fc.w += m
		if err != nil && fc.w-fc.r < n {
			if err == io.EOF && fc.w > fc.r {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// WriteFrame encodes f into the reusable scratch and hands it to the
// Conn in one Write — zero allocations on the steady-state arrive path.
func (fc *FrameConn) WriteFrame(f Frame) error { return fc.writeFrame(&f) }

func (fc *FrameConn) writeFrame(f *Frame) error {
	buf, err := appendFrame(fc.wbuf[:0], f)
	if err != nil {
		return err
	}
	fc.wbuf = buf
	_, err = fc.conn.Write(buf)
	return err
}

// WriteFrameTimeout is WriteFrame with the write bounded by d (0 = no
// bound). The deadline stays armed afterwards; callers that interleave
// bounded and unbounded writes clear it with SetWriteDeadline.
func (fc *FrameConn) WriteFrameTimeout(f Frame, d time.Duration) error {
	if d > 0 {
		fc.conn.SetWriteDeadline(time.Now().Add(d))
	}
	return fc.writeFrame(&f)
}

// SetReadDeadline bounds the read half: a deadline in the past unblocks a
// pending ReadFrame, which is how context-cancelled waits abandon the
// connection.
func (fc *FrameConn) SetReadDeadline(t time.Time) error { return fc.conn.SetReadDeadline(t) }

// SetWriteDeadline bounds the write half.
func (fc *FrameConn) SetWriteDeadline(t time.Time) error { return fc.conn.SetWriteDeadline(t) }

// Close closes the underlying connection; pending reads and writes on
// both halves fail.
func (fc *FrameConn) Close() error { return fc.conn.Close() }
