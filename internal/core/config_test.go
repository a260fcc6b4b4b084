package core

import (
	"encoding/json"
	"io"
	"reflect"
	"strings"
	"testing"

	"dqemu/internal/netsim"
	"dqemu/internal/proto"
	"dqemu/internal/trace"
)

// TestInitFrameRoundTrip: a slave process rebuilds, from the KInit frame
// alone, the master's whole Shape and Knobs — every field of both, each set
// here by reflection, so a field added to either that does not reach the
// slave fails — and its fault plan and retry policy; the per-process fields
// stay behind. A record this build could not have written, or one no
// cluster can be built from, is refused with an error that names what was
// refused.
func TestInitFrameRoundTrip(t *testing.T) {
	var want Config
	for _, v := range []reflect.Value{reflect.ValueOf(&want.Shape).Elem(), reflect.ValueOf(&want.Knobs).Elem()} {
		for i := 0; i < v.NumField(); i++ {
			switch f, name := v.Field(i), v.Type().Field(i).Name; {
			case name == "PageSize":
				f.SetInt(1024)
			case f.Kind() == reflect.Bool:
				f.SetBool(true)
			case f.CanInt():
				f.SetInt(int64(2 + i)) // distinct, and inside every bound Check knows
			default:
				t.Fatalf("%s.%s is a %v, which this test cannot set", v.Type().Name(), name, f.Kind())
			}
		}
	}
	want.Faults = &netsim.FaultPlan{
		Seed: 7, DropRate: 0.03, JitterNs: 200_000,
		Stalls:  []netsim.Window{{Node: 1, FromNs: 5, ToNs: 9}},
		Crashes: []netsim.Crash{{Node: 2, AtNs: 11}},
	}
	want.Retry = netsim.RetryPolicy{BaseRTONs: 5_000_000, MaxRTONs: 80_000_000, MaxAttempts: 9, NoDedup: true}

	master := want
	master.Net = netsim.DefaultConfig()
	master.Stdout = io.Discard
	master.Cancel = make(chan struct{})
	master.Tracer = trace.New(0, nil)
	img := []byte{1, 2, 3}
	m := InitFrame(master, 2, img)
	if m.Num != 0 || m.Ret != 0 || m.Args != [6]uint64{} {
		t.Errorf("KInit carries syscall words %d %d %v", m.Num, m.Ret, m.Args)
	}
	if !reflect.DeepEqual(m.Data, img) {
		t.Errorf("frame carries image %v", m.Data)
	}
	got, id, err := ConfigFromInit(m)
	if err != nil {
		t.Fatal(err)
	}
	if id != 2 {
		t.Errorf("node id %d, want 2", id)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip\n got %+v\nwant %+v", got, want)
	}

	// NoTier3 is not a knob: it reaches the slave as what normalize folds
	// it into.
	if got, _, err := ConfigFromInit(InitFrame(Config{NoTier3: true}, 1, nil)); err != nil || !got.NoSuperblock {
		t.Errorf("master with NoTier3: slave NoSuperblock %v (err %v)", got.NoSuperblock, err)
	}

	record := func(m *proto.Msg) map[string]any {
		var r map[string]any
		if err := json.Unmarshal(m.San, &r); err != nil {
			t.Fatal(err)
		}
		return r
	}
	for name, tc := range map[string]struct {
		from    Config
		edit    func(r map[string]any)
		wantSub string
	}{
		"unknown field":   {Config{}, func(r map[string]any) { r["flags"] = 64 }, `unknown field "flags"`},
		"unknown knob":    {Config{}, func(r map[string]any) { r["knobs"] = map[string]any{"tier3": true} }, `unknown field "tier3"`},
		"negative slaves": {Config{}, func(r map[string]any) { r["cluster"].(map[string]any)["slaves"] = -1 }, "-1 slaves outside [0, 63]"},
		"crash of node 9": {want, func(r map[string]any) {
			r["faults"].(map[string]any)["crashes"] = []any{map[string]any{"node": 9, "at_ns": 1}}
		}, "unknown or master node 9"},
		"malformed": {Config{}, nil, "decoding init frame: unexpected EOF"},
	} {
		m := InitFrame(tc.from, 1, nil)
		if tc.edit == nil {
			m.San = m.San[:len(m.San)/2]
		} else {
			r := record(m)
			tc.edit(r)
			m.San, _ = json.Marshal(r)
		}
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
		{"257 cores", func(c *Config) { c.Cores = 257 }, "257 cores outside [0, 256]"},
		{"negative cores", func(c *Config) { c.Cores = -1 }, "-1 cores outside [0, 256]"},
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
	for _, cores := range []int{0, 256} {
		cfg := DefaultConfig()
		cfg.Cores = cores
		if err := cfg.Check(); err != nil {
			t.Errorf("%d cores refused: %v", cores, err)
		}
	}
}

// TestInitFrameHugePageSizeRefused: a KInit frame naming a 2^40-byte page is
// refused by the slave while it decodes the frame, before anything asks the
// memory layer for a 1 TiB page.
func TestInitFrameHugePageSizeRefused(t *testing.T) {
	initRefused(t, Config{Shape: Shape{Slaves: 1, PageSize: 1 << 40}}, "page size 1099511627776")
}

// TestInitFrameTooManyCoresRefused: the same for a frame naming 257 cores
// per node, one past what Check allows.
func TestInitFrameTooManyCoresRefused(t *testing.T) {
	initRefused(t, Config{Shape: Shape{Slaves: 1, Cores: 257}}, "257 cores outside [0, 256]")
}

// initRefused checks that ConfigFromInit refuses the KInit frame for cfg
// with an error containing wantSub.
func initRefused(t *testing.T, cfg Config, wantSub string) {
	t.Helper()
	if _, _, err := ConfigFromInit(InitFrame(cfg, 1, nil)); err == nil || !strings.Contains(err.Error(), wantSub) {
		t.Fatalf("ConfigFromInit error %v, want one containing %q", err, wantSub)
	}
}
