// Package proto defines the wire protocol spoken between DQEMU cluster
// nodes: coherence traffic (page requests, contents, invalidations), syscall
// delegation, thread management and the optimization side-channels (page
// splitting remaps, forwarded pages). One Msg struct covers all kinds, with
// a field for everything any kind carries; the binary codec is used by the
// live TCP transport and to size messages for the simulated network's
// bandwidth model.
package proto

import (
	"encoding/binary"
	"fmt"
)

// Kind discriminates message types.
type Kind uint8

const (
	KInvalid Kind = iota

	// Coherence protocol (§4.2).
	KPageReq     // slave -> master: Page, Addr, Write
	KPageContent // master -> node: Page, Perm, Data (payload container; none = reaffirm Perm)
	KInvalidate  // master -> sharer: Page
	KInvAck      // sharer -> master: Page
	KFetch       // master -> owner: Page, Write (true = invalidate, false = downgrade)
	KFetchReply  // owner -> master: Page, Data (payload container of one page)
	KRetry       // master -> node: Page — re-execute the faulting access (page was split)

	// Optimizations (§5).
	KRemap // master -> all: Page, Shadows (page splitting)
	KPush  // master -> node: Page, Data (payload container; data forwarding, Shared state)

	// Syscall delegation (§4.3).
	KSyscallReq   // slave -> master: TID, Num, Args
	KSyscallReply // master -> slave: TID, Ret

	// Thread management (§4.1).
	KThreadStart // master -> node: TID, CPU (serialized context)
	KShutdown    // master -> all: stop

	// Dynamic thread migration (extension of the paper's §4.1 context
	// shipping): the master asks a node to hand over a thread; the node
	// ships the context back when the thread reaches a clean boundary.
	KMigrate    // master -> node: TID (Num = target node, informational)
	KMigrateCtx // node -> master: TID, CPU

	// Live-mode bootstrap (internal/live): the master assigns the slave its
	// node id and ships the guest image and the cluster's configuration.
	KInit // master -> slave: Data=image, San=JSON of node id, shape, knobs, fault plan, retry policy (core.InitFrame)
	KInitAck

	// Reliable delivery (fault-tolerant transport): cumulative acknowledgement
	// for the per-link sequence space. Acks themselves are sent unreliably;
	// they are idempotent and a later ack subsumes a lost one.
	KAck // node -> node: Seq = highest contiguous sequence delivered

	// KindCount is one past the highest message kind. Fixed-size per-kind
	// tables (netsim.Stats.ByKind and friends) are sized from it, so adding a
	// kind above this line grows them automatically.
	KindCount
)

var kindNames = [...]string{
	KInvalid: "invalid", KPageReq: "page-req", KPageContent: "page-content",
	KInvalidate: "invalidate", KInvAck: "inv-ack", KFetch: "fetch",
	KFetchReply: "fetch-reply", KRetry: "retry", KRemap: "remap", KPush: "push",
	KSyscallReq: "syscall-req", KSyscallReply: "syscall-reply",
	KThreadStart: "thread-start", KShutdown: "shutdown",
	KInit: "init", KInitAck: "init-ack",
	KMigrate: "migrate", KMigrateCtx: "migrate-ctx",
	KAck: "ack",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Msg is one protocol message. Unused fields are zero. Every field is in
// the one struct, 216 bytes (the 224-byte size class, TestAllocMsgSize):
// messages come from the process's frame stock and are reused, so a
// message that carries no syscall words or variable fields costs nothing
// more for having room for them.
//
// A message handed to a runtime's Send, and every buffer it carries, is
// immutable until the handler it is delivered to returns. From then on the
// message, and the Data of a KPageContent, KPush or KFetchReply, go back to
// the process's frame stock (internal/core) and are reused for a later
// message: a handler that keeps any of a message's content past its return
// copies it out. Over sockets the sender gives a frame back as soon as it
// is encoded, and the reader copies a received frame out of its read
// buffer.
type Msg struct {
	Kind  Kind
	Write bool
	Perm  uint8
	// Flags carries wire-layer bits (FlagFullResend).
	Flags uint8
	From  int32
	To    int32
	// Seq is the per-link sequence number stamped by the reliable transport
	// (netsim.Reliable, its only owner; 0 = unsequenced). On a KAck it is
	// the highest sequence number delivered in order.
	Seq  uint64
	TID  int64
	Page uint64
	Addr uint64
	// Ver is a per-page directory version: on KPageReq the requester's twin
	// version (0 = no usable twin), on KFetch the epoch the owner's content
	// will be known as, on KRemap the home version of the original page at
	// split time (nodes whose twin matches split it along the shadows).
	Ver  uint64
	Data []byte

	// The syscall words: set on syscall delegation and replies, and on
	// KMigrate (Num = target node).
	Num  int64
	Ret  uint64
	Args [6]uint64

	// Shadows are a remap's shadow pages.
	Shadows []uint64
	// CPU is the serialized context of a thread start or migration.
	CPU []byte
	// San is the DQSan piggyback — an encoded vector clock (syscall
	// delegation, futex replies, thread start/migration) or an encoded
	// shadow page (coherence transfers), empty when the sanitizer is off —
	// and on KInit the cluster's configuration.
	San []byte
}

// FlagFullResend, a Msg.Flags bit, on a KPageReq asks for a full-page
// grant: the requester's twin proved unusable (a delta mismatched), so the
// directory must ship content even where it would normally reaffirm.
const FlagFullResend uint8 = 1

// HeaderSize approximates the fixed per-message header cost on the wire;
// everything beyond it (Data, CPU, Shadows, San) is payload.
const HeaderSize = 64

// WireSize returns the message size in bytes for the bandwidth model.
func (m *Msg) WireSize() int64 {
	return int64(HeaderSize + m.PayloadSize())
}

// PayloadSize is the variable-length portion of the message: page data or
// payload containers, serialized CPU contexts, shadow lists and the DQSan
// piggyback.
func (m *Msg) PayloadSize() int {
	return len(m.Data) + len(m.CPU) + 8*len(m.Shadows) + len(m.San)
}

// frameFixed is the encoded size of a message that carries nothing variable:
// the 4-byte length prefix, every fixed-width field, and the four length
// words of Shadows, Data, CPU and San.
const frameFixed = 136

// FrameSize is the length of the message's frame, prefix included.
func (m *Msg) FrameSize() int { return frameFixed + m.PayloadSize() }

// Encode serialises the message (length-prefixed frame) into one buffer of
// exactly the frame's size.
func (m *Msg) Encode() []byte {
	return m.AppendFrame(make([]byte, 0, m.FrameSize()))
}

// AppendFrame appends the message's length-prefixed frame to dst and returns
// the extended slice; what dst already holds is left as it is. A writer that
// owns a buffer and hands it to nothing that keeps it (a net.Conn) encodes
// every frame into that one buffer.
func (m *Msg) AppendFrame(dst []byte) []byte {
	start := len(dst)
	buf := append(m.appendHead(dst), m.Data...)
	buf = m.appendTail(buf)
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	return buf
}

// appendHead appends the frame up to Data's length word, with a zero length
// prefix for the caller to fill in.
func (m *Msg) appendHead(dst []byte) []byte {
	buf := append(dst, 0, 0, 0, 0, byte(m.Kind))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.From))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.To))
	buf = binary.LittleEndian.AppendUint64(buf, m.Seq)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.TID))
	buf = binary.LittleEndian.AppendUint64(buf, m.Page)
	buf = binary.LittleEndian.AppendUint64(buf, m.Addr)
	var w byte
	if m.Write {
		w = 1
	}
	buf = append(buf, w, m.Perm, m.Flags)
	buf = binary.LittleEndian.AppendUint64(buf, m.Ver)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.Num))
	buf = binary.LittleEndian.AppendUint64(buf, m.Ret)
	for _, a := range m.Args {
		buf = binary.LittleEndian.AppendUint64(buf, a)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Shadows)))
	for _, s := range m.Shadows {
		buf = binary.LittleEndian.AppendUint64(buf, s)
	}
	return binary.LittleEndian.AppendUint32(buf, uint32(len(m.Data)))
}

// appendTail appends what the frame carries after Data: CPU and San.
func (m *Msg) appendTail(dst []byte) []byte {
	buf := binary.LittleEndian.AppendUint32(dst, uint32(len(m.CPU)))
	buf = append(buf, m.CPU...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.San)))
	return append(buf, m.San...)
}

// Decode parses a frame produced by Encode (without consuming the length
// prefix, which the transport strips) into a new message: DecodeInto on a
// message of its own.
func Decode(buf []byte) (*Msg, error) {
	m := &Msg{}
	if err := DecodeInto(m, buf); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodeInto parses a frame produced by Encode (without its length prefix)
// into m, overwriting every field. The message's Data, CPU and San are views
// of buf, not copies: buf belongs to the message from here on, and nobody —
// caller, message holder or consumer — may write it while the message is
// handled (the contract at Msg). A reader that reuses buf for the next frame
// copies them out first. Shadows are made anew.
func DecodeInto(m *Msg, buf []byte) error {
	r := &reader{buf: buf}
	*m = Msg{}
	m.Kind = Kind(r.u8())
	m.From = int32(r.u32())
	m.To = int32(r.u32())
	m.Seq = r.u64()
	m.TID = int64(r.u64())
	m.Page = r.u64()
	m.Addr = r.u64()
	m.Write = r.u8() != 0
	m.Perm = r.u8()
	m.Flags = r.u8()
	m.Ver = r.u64()
	m.Num = int64(r.u64())
	m.Ret = r.u64()
	for i := range m.Args {
		m.Args[i] = r.u64()
	}
	if n := int(r.u32()); n > 0 {
		if n > 1<<20 {
			return fmt.Errorf("proto: absurd shadow count %d", n)
		}
		if b := r.take(8 * n); b != nil {
			m.Shadows = make([]uint64, n)
			for i := range m.Shadows {
				m.Shadows[i] = binary.LittleEndian.Uint64(b[8*i:])
			}
		}
	}
	m.Data = r.blob()
	m.CPU = r.blob()
	m.San = r.blob()
	if r.err != nil {
		return fmt.Errorf("proto: decode %v: %w", m.Kind, r.err)
	}
	return nil
}

type reader struct {
	buf []byte
	off int
	err error
}

// take returns the next n bytes of the frame as a view (capacity clipped, so
// an append by a holder cannot reach the bytes behind it), or nil (and sets
// err) when the frame ends first: a truncated frame allocates nothing it
// claims to carry.
func (r *reader) take(n int) []byte {
	if r.err != nil || r.off+n > len(r.buf) {
		if r.err == nil {
			r.err = fmt.Errorf("truncated at %d (+%d of %d)", r.off, n, len(r.buf))
		}
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// zeros is what a fixed-width read past the end of the frame decodes.
var zeros [8]byte

func (r *reader) fixed(n int) []byte {
	if b := r.take(n); b != nil {
		return b
	}
	return zeros[:n]
}

func (r *reader) u8() byte    { return r.fixed(1)[0] }
func (r *reader) u16() uint16 { return binary.LittleEndian.Uint16(r.fixed(2)) }
func (r *reader) u32() uint32 { return binary.LittleEndian.Uint32(r.fixed(4)) }
func (r *reader) u64() uint64 { return binary.LittleEndian.Uint64(r.fixed(8)) }

// blob reads a length-prefixed byte string as a view of the frame, which is
// immutable, so the view is as good as a copy.
func (r *reader) blob() []byte {
	n := int(r.u32())
	if r.err != nil || n == 0 {
		return nil
	}
	if n > 1<<24 {
		r.err = fmt.Errorf("absurd blob size %d", n)
		return nil
	}
	return r.take(n)
}
