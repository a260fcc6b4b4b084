package proto

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"unsafe"
)

var update = flag.Bool("update", false, "rewrite testdata/frames.golden from this Encode: a wire-format change")

// TestAllocMsgSize pins what a message costs in memory: 96 bytes for the
// message, 64 for the syscall words, the 80-byte class for Shadows/CPU/San.
// The field order is what buys it — Kind, Write, Perm, Flags share one word
// with From and To; Seq, TID, Page, Addr, Ver and Data follow; Sys and Aux
// are pointers. A field appended to Msg lands in the 112-byte class and is
// paid on every message of a run.
func TestAllocMsgSize(t *testing.T) {
	if got := unsafe.Sizeof(Msg{}); got > 96 {
		t.Errorf("Msg is %d bytes, want at most 96: fields in the order Kind Write Perm Flags From To | Seq TID Page Addr Ver | Data | Sys Aux, anything new behind Sys or Aux", got)
	}
	if got := unsafe.Sizeof(Sys{}); got != 64 {
		t.Errorf("Sys is %d bytes, want 64 (Num, Ret, Args[6])", got)
	}
	if got := unsafe.Sizeof(Aux{}); got > 80 {
		t.Errorf("Aux is %d bytes, want at most 80 (Shadows, CPU, San)", got)
	}
}

// goldenMsgs is every message whose frame testdata/frames.golden holds.
func goldenMsgs() (names []string, msgs []*Msg) {
	for i, m := range roundtripMsgs {
		names, msgs = append(names, fmt.Sprintf("roundtrip/%d/%v", i, m.Kind)), append(msgs, m)
	}
	for i, m := range fuzzSeeds {
		names, msgs = append(names, fmt.Sprintf("fuzzseed/%d/%v", i, m.Kind)), append(msgs, m)
	}
	return append(names, "container/page-content"), append(msgs, allocMsgs[3].m)
}

// TestFrameGolden: the frame layout is what it was before Msg was split into
// parts — the file was written by the Encode of the commit before the split,
// and rewritten since only where the protocol itself changed (kind numbers,
// flag bits), so a node built from the same protocol decodes these frames
// and sends them.
// Encode and AppendFrame both produce them, and AppendFrame leaves what its
// buffer already held alone.
func TestFrameGolden(t *testing.T) {
	const path = "testdata/frames.golden"
	names, msgs := goldenMsgs()
	if *update {
		var out strings.Builder
		for i, m := range msgs {
			fmt.Fprintf(&out, "%s %s\n", names[i], hex.EncodeToString(m.Encode()))
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(file)), "\n")
	if len(lines) != len(msgs) {
		t.Fatalf("%s holds %d frames, the tests make %d", path, len(lines), len(msgs))
	}
	prefix := []byte("kept")
	for i, m := range msgs {
		name, want, _ := strings.Cut(lines[i], " ")
		if name != names[i] {
			t.Fatalf("line %d is %s, want %s", i+1, name, names[i])
		}
		if got := hex.EncodeToString(m.Encode()); got != want {
			t.Errorf("%s: Encode's frame differs from the golden one\n got %s\nwant %s", name, got, want)
		}
		if got := m.FrameSize(); got != len(want)/2 {
			t.Errorf("%s: FrameSize %d, the frame is %d bytes", name, got, len(want)/2)
		}
		appended := m.AppendFrame(append([]byte(nil), prefix...))
		if !bytes.HasPrefix(appended, prefix) || hex.EncodeToString(appended[len(prefix):]) != want {
			t.Errorf("%s: AppendFrame behind a prefix: prefix kept %v, frame equal %v", name,
				bytes.HasPrefix(appended, prefix), hex.EncodeToString(appended[len(prefix):]) == want)
		}
	}
}
