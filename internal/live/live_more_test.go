package live

import (
	"net"
	"strings"
	"testing"
	"time"

	"dqemu/internal/core"
	"dqemu/internal/proto"
)

func TestRunSlaveBadAddress(t *testing.T) {
	if _, err := RunSlave("127.0.0.1:1"); err == nil || !strings.Contains(err.Error(), "dial") {
		t.Errorf("expected dial error, got %v", err)
	}
}

func TestRunSlaveBadHandshake(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		// Send a non-init message first.
		proto.WriteMsg(conn, &proto.Msg{Kind: proto.KShutdown})
		conn.Close()
	}()
	if _, err := RunSlave(ln.Addr().String()); err == nil || !strings.Contains(err.Error(), "init") {
		t.Errorf("expected init error, got %v", err)
	}
}

// TestRunSlaveRefusesForeignInit: a KInit frame whose record has a field
// this build does not know comes from a master of another build; the slave
// must refuse to boot rather than run without the setting it names.
func TestRunSlaveRefusesForeignInit(t *testing.T) {
	im := build(t, `long main() { return 0; }`)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		m := core.InitFrame(core.Config{Shape: core.Shape{Slaves: 1}}, 1, im.Encode())
		m.San = append(m.San[:len(m.San)-1], `,"tier4":true}`...)
		proto.WriteMsg(conn, m)
		proto.ReadMsg(conn) // hold the connection until the slave gives up
	}()
	_, err = RunSlave(ln.Addr().String())
	if err == nil || !strings.Contains(err.Error(), "live: init:") || !strings.Contains(err.Error(), `unknown field "tier4"`) {
		t.Errorf("expected a live: init: error naming the unknown field, got %v", err)
	}
}

func TestMasterTimeout(t *testing.T) {
	im := build(t, `
long main() {
	while (1) {}
	return 0;
}`)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go RunSlave(ln.Addr().String())
	_, err = RunMaster(ln, im, Config{Core: core.Config{Shape: core.Shape{Slaves: 1}}, Timeout: 500 * time.Millisecond})
	if err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Errorf("expected timeout, got %v", err)
	}
}

func TestLiveSplittingAndHints(t *testing.T) {
	// Exercise the splitter and hint placement paths in live mode.
	im := build(t, `
long raw[1024];
long *pg;
long worker(long arg) {
	long base = arg * 256;
	for (long r = 0; r < 60; r++) {
		for (long i = 0; i < 256; i++) pg[base + i] += 1;
	}
	return 0;
}
long main() {
	pg = (long*)(((long)raw + 4095) & ~4095);
	long tids[2];
	for (long i = 0; i < 2; i++) {
		dq_hint(1 + i);
		tids[i] = thread_create((long)worker, i);
	}
	for (long i = 0; i < 2; i++) thread_join(tids[i]);
	long s = 0;
	for (long i = 0; i < 512; i++) s += pg[i];
	print_long(s);
	print_char('\n');
	return 0;
}`)
	res := runLive(t, im, Config{Core: core.Config{Shape: core.Shape{Slaves: 2}, Knobs: core.Knobs{Splitting: true, HintSched: true, Forwarding: true}}})
	if res.Console != "30720\n" { // 512 slots * 60 rounds
		t.Errorf("console = %q", res.Console)
	}
}

// TestRunMasterRejectsUnsupportedConfig: the two core.Config settings whose
// implementation reads peer state in-process must fail fast with an error
// naming the field — before any slave is awaited — rather than run a cluster
// that silently ignores them.
func TestRunMasterRejectsUnsupportedConfig(t *testing.T) {
	im := build(t, `long main() { return 0; }`)
	for field, cfg := range map[string]core.Config{
		"Adaptive":  {Shape: core.Shape{Slaves: 1}, Knobs: core.Knobs{Adaptive: true}},
		"Sanitizer": {Shape: core.Shape{Slaves: 1}, Knobs: core.Knobs{Sanitizer: true}},
	} {
		t.Run(field, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			start := time.Now()
			_, err = RunMaster(ln, im, Config{Core: cfg, Timeout: 5 * time.Second})
			if err == nil || !strings.Contains(err.Error(), "Config.Core."+field) {
				t.Errorf("want an error naming Config.Core.%s, got %v", field, err)
			}
			if time.Since(start) > 2*time.Second {
				t.Errorf("rejection took %v: the master waited for slaves first", time.Since(start))
			}
		})
	}
}
