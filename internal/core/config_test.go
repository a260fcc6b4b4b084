package core

import (
	"reflect"
	"strings"
	"testing"
)

// TestInitFrameRoundTrip: a slave process rebuilds, from the KInit frame
// alone, exactly the part of Config a node reads — the four scalars and the
// six switches of nodeFlags, each in its own bit — and nothing else; a frame
// this build could not have written is refused with an error that says what
// it does not understand.
func TestInitFrameRoundTrip(t *testing.T) {
	base := Config{Slaves: 3, Cores: 2, PageSize: 1024, QuantumNs: 7_000}
	const nflags = 6
	if n := len(base.nodeFlags()); n != nflags {
		t.Fatalf("nodeFlags has %d switches, want %d", n, nflags)
	}
	img := []byte{1, 2, 3}

	// Each switch alone, then all together.
	for i := 0; i <= nflags; i++ {
		want := base
		for j, f := range want.nodeFlags() {
			*f = i == j || i == nflags
		}
		m := InitFrame(want, 2, img)
		wantBits := uint64(1) << i
		if i == nflags {
			wantBits = 1<<nflags - 1
		}
		if m.Args[4] != wantBits {
			t.Errorf("case %d: flag word %#b, want %#b", i, m.Args[4], wantBits)
		}
		if m.Args[5] != 0 {
			t.Errorf("case %d: Args[5] = %d, nothing ships there", i, m.Args[5])
		}
		if !reflect.DeepEqual(m.Data, img) {
			t.Errorf("case %d: frame carries image %v", i, m.Data)
		}
		got, id, err := ConfigFromInit(m)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if id != 2 {
			t.Errorf("case %d: node id %d, want 2", i, id)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("case %d: round trip\n got %+v\nwant %+v", i, got, want)
		}
	}

	// Master-only and per-process fields do not travel.
	master := base
	master.Forwarding, master.Splitting, master.HintSched = true, true, true
	if got, _, err := ConfigFromInit(InitFrame(master, 1, nil)); err != nil || !reflect.DeepEqual(got, base) {
		t.Errorf("master-only fields leaked into the slave's Config (err %v):\n got %+v\nwant %+v", err, got, base)
	}

	// Frames from another build: the flag word had eight bits before two
	// switches were deleted, and Args[5] once carried a threshold.
	for name, tc := range map[string]struct {
		mutate  func(args *[6]uint64)
		wantSub string
	}{
		"unknown flag bit": {func(a *[6]uint64) { a[4] |= 1 << nflags }, "unknown flag bits 0b1000000"},
		"high flag bit":    {func(a *[6]uint64) { a[4] |= 1 << 63 }, "unknown flag bits 0b1" + strings.Repeat("0", 63)},
		"Args[5] set":      {func(a *[6]uint64) { a[5] = 24 }, "Args[5] = 24"},
		"no nodes":         {func(a *[6]uint64) { a[0] = 0 }, "0 nodes"},
	} {
		m := InitFrame(base, 1, nil)
		tc.mutate(&m.Args)
		if _, _, err := ConfigFromInit(m); err == nil || !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %v, want one containing %q", name, err, tc.wantSub)
		}
	}
}
