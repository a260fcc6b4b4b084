// Command dqemu-live runs a DQEMU cluster over real TCP, one OS process per
// node — the same protocol the simulation drives, under true concurrency.
//
// Start the master (it waits for the slaves, then runs the guest):
//
//	dqemu-live -listen :9000 -slaves 2 prog.mc
//
// Start each slave (any machine that can reach the master):
//
//	dqemu-live -connect master:9000
//
// The master ships the guest image and the node configuration to the slaves
// during the handshake, so only the master needs the program and the flags.
// Every node runs internal/core's protocol engine, the one the simulator
// runs, wire-efficiency layer (delta transfers, coalescing) included.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"dqemu"
	"dqemu/internal/core"
	"dqemu/internal/live"
)

func main() {
	listen := flag.String("listen", "", "master: address to listen on (e.g. :9000)")
	connect := flag.String("connect", "", "slave: master address to connect to")
	cfg := live.Config{Core: core.Config{Stdout: os.Stdout}, Files: map[string][]byte{}}
	flag.IntVar(&cfg.Core.Slaves, "slaves", 1, "master: number of slaves to wait for")
	flag.BoolVar(&cfg.Core.Forwarding, "forward", false, "enable data forwarding")
	flag.BoolVar(&cfg.Core.Splitting, "split", false, "enable page splitting")
	flag.BoolVar(&cfg.Core.HintSched, "hints", false, "enable hint-based locality scheduling")
	flag.DurationVar(&cfg.Timeout, "timeout", 2*time.Minute, "master: abort a wedged run")
	var files fileFlags
	flag.Var(&files, "file", "guest VFS file as guestpath=hostpath (repeatable)")
	flag.Parse()

	switch {
	case *connect != "":
		if _, err := live.RunSlave(*connect); err != nil {
			fatal(err)
		}
	case *listen != "":
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: dqemu-live -listen ADDR -slaves N prog.mc|prog.s|prog.img")
			os.Exit(2)
		}
		im, err := dqemu.Load(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			fatal(err)
		}
		defer ln.Close()
		fmt.Fprintf(os.Stderr, "dqemu-live: waiting for %d slave(s) on %s\n", cfg.Core.Slaves, ln.Addr())
		for _, f := range files {
			data, err := os.ReadFile(f.host)
			if err != nil {
				fatal(err)
			}
			cfg.Files[f.guest] = data
		}
		res, err := live.RunMaster(ln, im, cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "dqemu-live: guest exited %d after %v\n", res.ExitCode, res.Wall)
		os.Exit(int(res.ExitCode))
	default:
		fmt.Fprintln(os.Stderr, "dqemu-live: need -listen (master) or -connect (slave)")
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dqemu-live:", err)
	os.Exit(1)
}

type fileMapping struct{ guest, host string }

type fileFlags []fileMapping

func (f *fileFlags) String() string { return fmt.Sprint(*f) }

func (f *fileFlags) Set(v string) error {
	parts := strings.SplitN(v, "=", 2)
	if len(parts) != 2 {
		return fmt.Errorf("want guestpath=hostpath, got %q", v)
	}
	*f = append(*f, fileMapping{guest: parts[0], host: parts[1]})
	return nil
}
