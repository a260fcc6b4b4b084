package core

import (
	"reflect"
	"testing"
)

// TestInitFrameRoundTrip: a slave process rebuilds, from the KInit frame
// alone, exactly the part of Config a node reads — the four scalars and the
// eight switches of nodeFlags, each in its own bit — and nothing else.
func TestInitFrameRoundTrip(t *testing.T) {
	base := Config{Slaves: 3, Cores: 2, PageSize: 1024, QuantumNs: 7_000}
	if n := len(base.nodeFlags()); n != 8 {
		t.Fatalf("nodeFlags has %d switches, want 8", n)
	}
	img := []byte{1, 2, 3}

	// Each switch alone, then all together.
	for i := 0; i <= 8; i++ {
		want := base
		for j, f := range want.nodeFlags() {
			*f = i == j || i == 8
		}
		m := InitFrame(want, 2, img)
		wantBits := uint64(1) << i
		if i == 8 {
			wantBits = 1<<8 - 1
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
		got, id := ConfigFromInit(m)
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
	if got, _ := ConfigFromInit(InitFrame(master, 1, nil)); !reflect.DeepEqual(got, base) {
		t.Errorf("master-only fields leaked into the slave's Config:\n got %+v\nwant %+v", got, base)
	}
}
