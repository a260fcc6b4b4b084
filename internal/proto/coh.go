package proto

import (
	"encoding/binary"
	"fmt"
)

// Coherence payload containers: the one framing of page content on the wire.
// Every KPageContent, KPush and KFetchReply that carries data carries one or
// more PagePayloads in Data: a KPageContent holds the demand grant first plus
// any pushes piggybacked onto it, a KPush holds a batch of forwarded pages,
// and a KFetchReply holds the owner's single page. A KPageContent without
// Data is a permission-only reaffirmation.

// MaxBatchEntries bounds the payload count of a container. The count is
// serialized as uint16, so without a bound a large batch would silently
// truncate its count while still appending every payload's bytes — decoding
// to a trailing-bytes error that fails the whole cluster. EncodePayloads
// panics past the bound (callers split oversized batches into multiple
// messages); ReadPayloads rejects anything larger as corrupt.
const MaxBatchEntries = 1 << 12

// Page content encodings.
const (
	// EncFull: Body is the raw page.
	EncFull uint8 = iota
	// EncDelta: Body is a delta (delta.go) against the receiver's twin at
	// version BaseVer.
	EncDelta
	// EncRLE: Body is a delta against the all-zero page (zero-run encoding
	// for freshly touched sparse pages).
	EncRLE
	// EncSame: no body. The receiver already holds the content — its twin at
	// version Ver for grants and pushes, the home copy for a fetch reply
	// whose sender never installed the page.
	EncSame
)

// PagePayload is one page transfer inside a payload container.
type PagePayload struct {
	Page uint64
	// Ver is the directory version of the carried content; the receiver's
	// twin adopts it.
	Ver uint64
	// BaseVer is the twin version an EncDelta body applies against.
	BaseVer uint64
	Enc     uint8
	// Perm is the permission to install with (mem.Perm).
	Perm uint8
	// Push marks a piggybacked forwarded page: the receiver applies its
	// push rules (ignore if resident or upgrading) instead of treating it
	// as the demand grant.
	Push bool
	Body []byte
	// San is the per-page DQSan shadow piggyback.
	San []byte
}

// payloadFixed is the encoded size of a payload without its Body and San:
// three versions, Enc/Perm/Push, two length words.
const payloadFixed = 35

// EncodePayloads serializes a payload container for Msg.Data into one buffer
// of exactly the container's size.
func EncodePayloads(ps []PagePayload) []byte { return AppendPayloads(nil, ps) }

// AppendPayloads appends the payload container of ps to dst and returns the
// extended slice; when dst has too little room, into a new buffer of
// exactly the size needed. A sender that keeps the
// containers of frames delivered to it encodes the next one into such a
// container, cut to length 0.
func AppendPayloads(dst []byte, ps []PagePayload) []byte {
	if len(ps) > MaxBatchEntries {
		panic(fmt.Sprintf("proto: payload batch of %d entries exceeds MaxBatchEntries (%d); split into multiple messages",
			len(ps), MaxBatchEntries))
	}
	size := 2
	for i := range ps {
		size += payloadFixed + len(ps[i].Body) + len(ps[i].San)
	}
	buf := dst
	if cap(buf)-len(buf) < size {
		buf = append(make([]byte, 0, len(dst)+size), dst...)
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(ps)))
	for i := range ps {
		p := &ps[i]
		buf = binary.LittleEndian.AppendUint64(buf, p.Page)
		buf = binary.LittleEndian.AppendUint64(buf, p.Ver)
		buf = binary.LittleEndian.AppendUint64(buf, p.BaseVer)
		var push byte
		if p.Push {
			push = 1
		}
		buf = append(buf, p.Enc, p.Perm, push)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.Body)))
		buf = append(buf, p.Body...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.San)))
		buf = append(buf, p.San...)
	}
	return buf
}

// PayloadReader walks a container produced by EncodePayloads one payload at
// a time, by value: for r.Next(&pl) { ... }; then r.Err(). Every Body and San
// it yields is a view of the container, never a copy, good until the handler
// of the frame that carries the container returns: the container (a decoded
// frame's Data or, under the simulator, the sender's own encoding) is
// immutable until then, and afterwards it goes back to the process's frame
// stock, where any later send may be encoded into it. Whoever keeps a
// payload's bytes copies them out.
type PayloadReader struct {
	r    reader
	n    int // payloads the container announces
	left int
	err  error
}

// ReadPayloads starts reading the container b.
func ReadPayloads(b []byte) PayloadReader {
	pr := PayloadReader{r: reader{buf: b}}
	pr.n = int(pr.r.u16())
	if pr.n > MaxBatchEntries {
		pr.err = fmt.Errorf("proto: absurd payload count %d", pr.n)
		return pr
	}
	pr.left = pr.n
	return pr
}

// Len is the number of payloads the container announces.
func (pr *PayloadReader) Len() int { return pr.n }

// Next decodes the next payload into pl and reports whether there was one;
// it stops for good at the first payload the container ends inside of.
func (pr *PayloadReader) Next(pl *PagePayload) bool {
	if pr.left == 0 || pr.err != nil || pr.r.err != nil {
		return false
	}
	pr.left--
	r := &pr.r
	pl.Page = r.u64()
	pl.Ver = r.u64()
	pl.BaseVer = r.u64()
	pl.Enc = r.u8()
	pl.Perm = r.u8()
	pl.Push = r.u8() != 0
	pl.Body = r.blob()
	pl.San = r.blob()
	return r.err == nil
}

// Err is what stopped Next short of Len payloads or, once all of them were
// read, the container's trailing bytes; nil for a well-formed container.
func (pr *PayloadReader) Err() error {
	switch {
	case pr.err != nil:
		return pr.err
	case pr.r.err != nil:
		return fmt.Errorf("proto: decode payloads: %w", pr.r.err)
	case pr.left == 0 && pr.r.off != len(pr.r.buf):
		return fmt.Errorf("proto: %d trailing bytes after payloads", len(pr.r.buf)-pr.r.off)
	}
	return nil
}
