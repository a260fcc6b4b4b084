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
// Data is a permission-only reaffirmation. KInvBatch/KInvAckBatch have their
// own formats below.

// MaxBatchEntries bounds the entry count of every length-prefixed list on
// the wire: payload containers, invalidation-batch pages and remaps, remap
// shadow lists, and ack batches. All counts are serialized as uint16, so
// without a bound a large batch would silently truncate its count while
// still appending every entry's bytes — decoding to a trailing-bytes error
// that fails the whole cluster. Encoders panic past the bound (callers must
// split oversized batches into multiple messages); decoders reject anything
// larger as corrupt.
const MaxBatchEntries = 1 << 12

func checkBatchLen(what string, n int) {
	if n > MaxBatchEntries {
		panic(fmt.Sprintf("proto: %s of %d entries exceeds MaxBatchEntries (%d); split into multiple messages",
			what, n, MaxBatchEntries))
	}
}

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
func EncodePayloads(ps []PagePayload) []byte {
	checkBatchLen("payload batch", len(ps))
	size := 2
	for i := range ps {
		size += payloadFixed + len(ps[i].Body) + len(ps[i].San)
	}
	buf := make([]byte, 0, size)
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
// it yields is a view of the container, never a copy — the container (a
// decoded frame's Data or, under the simulator, the sender's own encoding)
// is immutable, and whoever installs a payload copies it out.
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

// RemapEntry is a page-splitting remap riding in a KInvBatch: nodes whose
// twin of Orig is at version Ver split it along the shadows.
type RemapEntry struct {
	Orig    uint64
	Ver     uint64
	Shadows []uint64
}

// remapFixed and ackFixed are the encoded sizes of a remap entry without its
// shadows (Orig, Ver, shadow count) and of an ack entry without its San.
const remapFixed, ackFixed = 18, 12

// EncodeInvBatch serializes a KInvBatch body — the pages being revoked from
// the receiver plus any remaps riding along — into one buffer of exactly its
// size.
func EncodeInvBatch(pages []uint64, remaps []RemapEntry) []byte {
	checkBatchLen("inv-batch page list", len(pages))
	checkBatchLen("inv-batch remap list", len(remaps))
	size := 2 + 8*len(pages) + 2
	for i := range remaps {
		checkBatchLen("remap shadow list", len(remaps[i].Shadows))
		size += remapFixed + 8*len(remaps[i].Shadows)
	}
	buf := make([]byte, 0, size)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(pages)))
	for _, p := range pages {
		buf = binary.LittleEndian.AppendUint64(buf, p)
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(remaps)))
	for _, rm := range remaps {
		buf = binary.LittleEndian.AppendUint64(buf, rm.Orig)
		buf = binary.LittleEndian.AppendUint64(buf, rm.Ver)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(rm.Shadows)))
		for _, sh := range rm.Shadows {
			buf = binary.LittleEndian.AppendUint64(buf, sh)
		}
	}
	return buf
}

// room reports whether n more entries of at least size bytes each fit in what
// is left of the buffer. A batch decoder sizes a list once when they do; when
// not, it stores nothing and reads on only to name where the body ends.
func (r *reader) room(n, size int) bool {
	return n > 0 && n*size <= len(r.buf)-r.off
}

// DecodeInvBatch parses a KInvBatch body.
func DecodeInvBatch(b []byte) (pages []uint64, remaps []RemapEntry, err error) {
	r := &reader{buf: b}
	np := int(r.u16())
	if np > MaxBatchEntries {
		return nil, nil, fmt.Errorf("proto: absurd inv-batch page count %d", np)
	}
	if r.room(np, 8) {
		pages = make([]uint64, 0, np)
	}
	for i := 0; i < np && r.err == nil; i++ {
		if p := r.u64(); pages != nil {
			pages = append(pages, p)
		}
	}
	nr := int(r.u16())
	if nr > MaxBatchEntries {
		return nil, nil, fmt.Errorf("proto: absurd inv-batch remap count %d", nr)
	}
	if r.room(nr, remapFixed) {
		remaps = make([]RemapEntry, 0, nr)
	}
	for i := 0; i < nr && r.err == nil; i++ {
		rm := RemapEntry{Orig: r.u64(), Ver: r.u64()}
		ns := int(r.u16())
		if ns > MaxBatchEntries {
			return nil, nil, fmt.Errorf("proto: absurd remap shadow count %d", ns)
		}
		if r.room(ns, 8) {
			rm.Shadows = make([]uint64, 0, ns)
		}
		for j := 0; j < ns && r.err == nil; j++ {
			if sh := r.u64(); rm.Shadows != nil {
				rm.Shadows = append(rm.Shadows, sh)
			}
		}
		if remaps != nil {
			remaps = append(remaps, rm)
		}
	}
	if r.err != nil {
		return nil, nil, fmt.Errorf("proto: decode inv-batch: %w", r.err)
	}
	if r.off != len(b) {
		return nil, nil, fmt.Errorf("proto: %d trailing bytes after inv-batch", len(b)-r.off)
	}
	return pages, remaps, nil
}

// AckEntry is one page's acknowledgement inside a KInvAckBatch, carrying the
// dropped page's DQSan shadow history home.
type AckEntry struct {
	Page uint64
	San  []byte
}

// EncodeAckBatch serializes a KInvAckBatch body into one buffer of exactly
// its size.
func EncodeAckBatch(acks []AckEntry) []byte {
	checkBatchLen("ack batch", len(acks))
	size := 2
	for i := range acks {
		size += ackFixed + len(acks[i].San)
	}
	buf := make([]byte, 0, size)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(acks)))
	for _, a := range acks {
		buf = binary.LittleEndian.AppendUint64(buf, a.Page)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(a.San)))
		buf = append(buf, a.San...)
	}
	return buf
}

// DecodeAckBatch parses a KInvAckBatch body.
func DecodeAckBatch(b []byte) ([]AckEntry, error) {
	r := &reader{buf: b}
	n := int(r.u16())
	if n > MaxBatchEntries {
		return nil, fmt.Errorf("proto: absurd ack-batch count %d", n)
	}
	var acks []AckEntry
	if r.room(n, ackFixed) {
		acks = make([]AckEntry, 0, n)
	}
	for i := 0; i < n && r.err == nil; i++ {
		if a := (AckEntry{Page: r.u64(), San: r.blob()}); acks != nil {
			acks = append(acks, a)
		}
	}
	if r.err != nil {
		return nil, fmt.Errorf("proto: decode ack-batch: %w", r.err)
	}
	if r.off != len(b) {
		return nil, fmt.Errorf("proto: %d trailing bytes after ack-batch", len(b)-r.off)
	}
	return acks, nil
}
