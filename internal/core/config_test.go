package core

import (
	"reflect"
	"strings"
	"testing"

	"dqemu/internal/netsim"
	"dqemu/internal/proto"
)

// TestInitFrameRoundTrip: a slave process rebuilds, from the KInit frame
// alone, exactly the part of Config a node reads — the four scalars, the four
// switches of nodeFlags, each in its own bit, and under an active fault plan
// the plan and the retry policy behind a fifth, derived bit — and nothing
// else; a frame this build could not have written is refused with an error
// that says what it does not understand.
func TestInitFrameRoundTrip(t *testing.T) {
	base := Config{Slaves: 3, Cores: 2, PageSize: 1024, QuantumNs: 7_000}
	const nflags = 4
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
		if m.Sys.Args[4] != wantBits {
			t.Errorf("case %d: flag word %#b, want %#b", i, m.Sys.Args[4], wantBits)
		}
		if m.Sys.Args[5] != 0 {
			t.Errorf("case %d: Args[5] = %d, nothing ships there", i, m.Sys.Args[5])
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

	// An active fault plan travels whole, with the retry policy, and sets
	// the derived bit; an inactive one is no plan.
	faulty := base
	faulty.Faults = &netsim.FaultPlan{
		Seed: 7, DropRate: 0.03, JitterNs: 200_000,
		Stalls:  []netsim.Window{{Node: 1, FromNs: 5, ToNs: 9}},
		Crashes: []netsim.Crash{{Node: 2, AtNs: 11}},
	}
	faulty.Retry = netsim.RetryPolicy{BaseRTONs: 5_000_000, MaxRTONs: 80_000_000, MaxAttempts: 9, NoDedup: true}
	m := InitFrame(faulty, 1, img)
	if m.Sys.Args[4] != 1<<nflags {
		t.Errorf("fault plan: flag word %#b, want only bit %d", m.Sys.Args[4], nflags)
	}
	if got, _, err := ConfigFromInit(m); err != nil || !reflect.DeepEqual(got, faulty) {
		t.Errorf("fault plan: round trip (err %v)\n got %+v\nwant %+v", err, got, faulty)
	}
	idle := base
	idle.Faults = &netsim.FaultPlan{Seed: 7}
	if m := InitFrame(idle, 1, img); m.Sys.Args[4] != 0 || len(m.AuxPart().San) != 0 {
		t.Errorf("inactive plan shipped: flag word %#b, %d bytes", m.Sys.Args[4], len(m.AuxPart().San))
	}

	// Master-only and per-process fields do not travel.
	master := base
	master.Forwarding, master.Splitting, master.HintSched = true, true, true
	if got, _, err := ConfigFromInit(InitFrame(master, 1, nil)); err != nil || !reflect.DeepEqual(got, base) {
		t.Errorf("master-only fields leaked into the slave's Config (err %v):\n got %+v\nwant %+v", err, got, base)
	}

	// Frames from another build: the flag word had eight bits before four
	// switches left it, and Args[5] once carried a threshold. And
	// frames whose fault-plan bit and plan disagree.
	for name, tc := range map[string]struct {
		from    Config
		mutate  func(m *proto.Msg)
		wantSub string
	}{
		"unknown flag bit": {base, func(m *proto.Msg) { m.Sys.Args[4] |= 1 << (nflags + 1) }, "unknown flag bits 0b100000"},
		"high flag bit":    {base, func(m *proto.Msg) { m.Sys.Args[4] |= 1 << 63 }, "unknown flag bits 0b1" + strings.Repeat("0", 63)},
		"Args[5] set":      {base, func(m *proto.Msg) { m.Sys.Args[5] = 24 }, "Args[5] = 24"},
		"no nodes":         {base, func(m *proto.Msg) { m.Sys.Args[0] = 0 }, "0 nodes"},
		"bit, no plan":     {base, func(m *proto.Msg) { m.Sys.Args[4] |= 1 << nflags }, "fault plan"},
		"plan, no bit":     {faulty, func(m *proto.Msg) { m.Sys.Args[4] = 0 }, "without the flag bit"},
		"idle plan":        {faulty, func(m *proto.Msg) { m.Aux.San = []byte(`{"plan":{"seed":7}}`) }, "injects"},
		"crash of node 9":  {faulty, func(m *proto.Msg) { m.Aux.San = []byte(`{"plan":{"seed":7,"crashes":[{"node":9,"at_ns":1}]}}`) }, "unknown or master node 9"},
	} {
		m := InitFrame(tc.from, 1, nil)
		tc.mutate(m)
		if _, _, err := ConfigFromInit(m); err == nil || !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %v, want one containing %q", name, err, tc.wantSub)
		}
	}
}

// TestConfigCheck: shapes no cluster can be built from are refused by name
// when the cluster is built, before any node exists.
func TestConfigCheck(t *testing.T) {
	im := build(t, `long main() { return 0; }`)
	for _, tc := range []struct {
		name    string
		mutate  func(c *Config)
		wantSub string
	}{
		{"negative slaves", func(c *Config) { c.Slaves = -1 }, "-1 slaves outside [0, 63]"},
		{"64 slaves", func(c *Config) { c.Slaves = 64 }, "64 slaves outside [0, 63]"},
		{"odd page size", func(c *Config) { c.PageSize = 1000 }, "page size 1000"},
		{"tiny page size", func(c *Config) { c.PageSize = 32 }, "page size 32"},
		{"huge page size", func(c *Config) { c.PageSize = 128 << 10 }, "page size 131072"},
		{"forward trigger 65", func(c *Config) { c.ForwardTrigger = 65 }, "forward_trigger 65 outside [0, 64]"},
		{"negative split factor", func(c *Config) { c.SplitFactor = -1 }, "split_factor -1 outside [0, 64]"},
	} {
		cfg := DefaultConfig()
		tc.mutate(&cfg)
		if _, err := NewCluster(im, cfg); err == nil || !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: NewCluster error %v, want one containing %q", tc.name, err, tc.wantSub)
		}
		if _, err := NewLocal(im, cfg, 0, nil); err == nil || !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: NewLocal error %v, want one containing %q", tc.name, err, tc.wantSub)
		}
	}
	for _, ps := range []int{64, 64 << 10} {
		cfg := DefaultConfig()
		cfg.PageSize = ps
		if err := cfg.Check(); err != nil {
			t.Errorf("page size %d refused: %v", ps, err)
		}
	}
	for _, slaves := range []int{0, 63} {
		cfg := DefaultConfig()
		cfg.Slaves = slaves
		if err := cfg.Check(); err != nil {
			t.Errorf("%d slaves refused: %v", slaves, err)
		}
	}
}

// TestInitFrameHugePageSizeRefused: a KInit frame naming a 2^40-byte page
// decodes, but the slave's NewLocal refuses it instead of asking the memory
// layer for a 1 TiB page.
func TestInitFrameHugePageSizeRefused(t *testing.T) {
	im := build(t, `long main() { return 0; }`)
	cfg := Config{Slaves: 1, PageSize: 1 << 40}
	got, id, err := ConfigFromInit(InitFrame(cfg, 1, nil))
	if err != nil {
		t.Fatalf("ConfigFromInit: %v", err)
	}
	if _, err := NewLocal(im, got, id, nil); err == nil || !strings.Contains(err.Error(), "page size 1099511627776") {
		t.Fatalf("NewLocal error %v, want the page size refused", err)
	}
}
