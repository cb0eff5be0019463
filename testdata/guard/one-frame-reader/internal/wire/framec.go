package wire

import (
	buf "bufio"
	"io"
)

// FrameConn reads frames; a "bufio" in a string or comment is not an import.
type FrameConn struct{ r *buf.Reader }

func NewFrameConn(c io.Reader) *FrameConn { return &FrameConn{r: buf.NewReader(c)} }
