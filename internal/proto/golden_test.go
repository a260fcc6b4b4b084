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

// TestAllocMsgSize pins a message to one size class: at most 224 bytes.
// Messages come from the frame stock and are reused, so what one costs is
// paid per message kept, not per message sent; the one-byte fields sharing
// a word with From and To keep it at 216. A field that pushes Msg past 224
// moves every kept message to the 256-byte class.
func TestAllocMsgSize(t *testing.T) {
	if got := unsafe.Sizeof(Msg{}); got > 224 {
		t.Errorf("Msg is %d bytes, want at most 224: Kind Write Perm Flags share a word with From and To", got)
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

// TestFrameGolden: the frame layout is what it was when the file was
// written, by the Encode of a 224-byte Msg, and rewritten since only where
// the protocol itself changed (kind numbers, flag bits), so a node built
// from the same protocol decodes these frames and sends them.
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
