package proto

import (
	"encoding/binary"
	"fmt"
	"io"
)

// maxFrame bounds a wire frame; the largest legitimate messages carry a
// guest image (KInit), capped well below this.
const maxFrame = 64 << 20

// WriteMsg writes one length-prefixed frame.
func WriteMsg(w io.Writer, m *Msg) error {
	_, err := w.Write(m.Encode())
	return err
}

// ReadMsg reads one length-prefixed frame into a buffer of its own, which the
// returned message's Data, CPU and San are views of (Decode): two messages
// read from one stream share no memory.
func ReadMsg(r io.Reader) (*Msg, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("proto: frame of %d bytes exceeds limit", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return Decode(buf)
}
