package proto

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
)

// maxFrame bounds a wire frame; the largest legitimate messages carry a
// guest image (KInit), capped well below this.
const maxFrame = 64 << 20

// WriteMsg writes one length-prefixed frame, the bytes Encode makes, in three
// pieces: the header, Data as it is (not copied: a KInit's is a whole guest
// image), and what follows it.
func WriteMsg(w io.Writer, m *Msg) error {
	buf := m.appendHead(make([]byte, 0, m.FrameSize()-len(m.Data)))
	head := len(buf)
	buf = m.appendTail(buf)
	binary.LittleEndian.PutUint32(buf, uint32(len(buf)+len(m.Data)-4))
	bufs := net.Buffers{buf[:head], m.Data, buf[head:]}
	_, err := bufs.WriteTo(w)
	return err
}

// ReadFrame reads one length-prefixed frame into buf, grown when the frame
// does not fit, and returns the frame without its prefix: the buffer to pass
// to the next call and to DecodeInto. What the previous call returned is
// overwritten.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	hdr := buf[:cap(buf)]
	if len(hdr) < 4 {
		hdr = make([]byte, 4)
	}
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return buf[:0], err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n > maxFrame {
		return buf[:0], fmt.Errorf("proto: frame of %d bytes exceeds limit", n)
	}
	if int(n) > cap(buf) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf[:0], err
	}
	return buf, nil
}

// ReadMsg reads one length-prefixed frame into a buffer of its own, which the
// returned message's Data, CPU and San are views of (Decode): two messages
// read from one stream share no memory. It serves the handshake, whose KInit
// carries an image the slave keeps; a connection's steady state reads every
// frame into one buffer (ReadFrame, DecodeInto) and copies out what it keeps.
func ReadMsg(r io.Reader) (*Msg, error) {
	buf, err := ReadFrame(r, nil)
	if err != nil {
		return nil, err
	}
	return Decode(buf)
}
