// Command dqemu runs a guest program on a DQEMU cluster: the deterministic
// simulation by default, or real TCP with one process per node.
//
// The input is a mini-C source file (.mc), a GA64 assembly file (.s), or a
// prebuilt guest image (.img, from dqemu-cc/dqemu-asm). Guest console
// output goes to stdout; -stats prints the run summary to stderr.
//
//	dqemu -slaves 4 -forward -split prog.mc
//	dqemu -slaves 2 -stats -file input.txt=./local.dat prog.mc
//
// -listen runs the same program, with the same flags, as node 0 of a live
// cluster: it waits for -slaves processes started with -connect (on any host
// that reaches it), ships them the image and the node configuration, and
// runs the guest.
//
//	dqemu -listen :9000 -slaves 2 -forward prog.mc
//	dqemu -connect master:9000        # once per slave; -stats prints its node
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"time"

	"dqemu"
	"dqemu/internal/live"
	"dqemu/internal/metrics"
	"dqemu/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command. It returns the guest's exit code, 1 for a run
// that failed and 2 for bad usage.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dqemu", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := dqemu.DefaultConfig()
	cfg.Stdout = stdout
	fs.IntVar(&cfg.Slaves, "slaves", 0, "number of slave nodes (0 = single-node QEMU baseline)")
	fs.IntVar(&cfg.Cores, "cores", 4, "cores per node")
	fs.BoolVar(&cfg.Forwarding, "forward", false, "enable data forwarding (paper §5.2)")
	fs.BoolVar(&cfg.Splitting, "split", false, "enable page splitting (paper §5.1)")
	fs.BoolVar(&cfg.HintSched, "hints", false, "enable hint-based locality-aware scheduling (paper §5.3)")
	stats := fs.Bool("stats", false, "print run statistics to stderr (with -connect: this slave node's)")
	fs.BoolVar(&cfg.Verify, "verify", false, "prove every trace's lowering symbolically and check its closure compilation structurally; a failed proof compiles the reference lowering, a failed check leaves the trace on the block interpreter, and both are counted in -stats")
	traceFlag := fs.Bool("trace", false, "stream cluster events (messages, faults, syscalls) to stderr")
	fs.BoolVar(&cfg.Adaptive, "adaptive", false, "enable the metrics-driven feedback scheduler (locality and load migration, proactive splits)")
	profile := fs.String("profile", "", "enable the metrics registry and write the JSON snapshot to this file (- for stderr)")
	chromeTrace := fs.String("chrome-trace", "", "record typed spans and write a Chrome trace_event timeline (Perfetto-loadable) to this file")
	files := map[string][]byte{}
	fs.Func("file", "guest VFS file as guestpath=hostpath (repeatable)", func(v string) error {
		guest, host, ok := strings.Cut(v, "=")
		if !ok {
			return fmt.Errorf("want guestpath=hostpath, got %q", v)
		}
		data, err := os.ReadFile(host)
		files[guest] = data
		return err
	})
	listen := fs.String("listen", "", "run node 0 of a live TCP cluster: wait on this address for -slaves slaves")
	connect := fs.String("connect", "", "run a slave of the live master at this address, which ships the program and the flags")
	timeout := fs.Duration("timeout", 2*time.Minute, "with -listen: abort a wedged run, boot included")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "dqemu:", err)
		return 1
	}

	if *connect != "" && *listen == "" && fs.NArg() == 0 {
		node, err := live.RunSlave(*connect)
		if err != nil {
			return fail(err)
		}
		if *stats {
			printStats(stderr, node.Rows("wall"))
		}
		return 0
	}
	if *connect != "" || fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: dqemu [-listen ADDR] [flags] prog.mc|prog.s|prog.img, or dqemu [-stats] -connect ADDR")
		fs.PrintDefaults()
		return 2
	}
	im, err := dqemu.Load(fs.Arg(0))
	if err != nil {
		return fail(err)
	}

	if *traceFlag {
		cfg.Tracer = trace.New(0, stderr)
	} else if *chromeTrace != "" {
		cfg.Tracer = trace.New(0, nil) // span recording needs a tracer even without -trace streaming
	}
	cfg.Metrics = *profile != ""

	var res *dqemu.Result
	clock := "virtual"
	if *listen != "" {
		clock = "wall"
		res, err = runMaster(*listen, im, live.Config{Core: cfg, Timeout: *timeout, Files: files}, stderr)
	} else {
		res, err = runSim(im, cfg, files)
	}
	if err != nil {
		return fail(err)
	}
	if *stats {
		// A live run's clock is "wall", and its net.* rows read 0: its
		// frames cross real sockets, not the modelled network.
		printStats(stderr, res.Rows(clock))
	}
	profileJSON := func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(res.Metrics)
	}
	if err := writeOut(*profile, stderr, profileJSON); err != nil {
		return fail(err)
	}
	if err := writeOut(*chromeTrace, stderr, cfg.Tracer.WriteChrome); err != nil {
		return fail(err)
	}
	return int(res.ExitCode)
}

// runSim runs the guest on the simulated cluster.
func runSim(im *dqemu.Image, cfg dqemu.Config, files map[string][]byte) (*dqemu.Result, error) {
	cluster, err := dqemu.NewCluster(im, cfg)
	if err != nil {
		return nil, err
	}
	for path, data := range files {
		cluster.VFS().AddFile(path, data)
	}
	return cluster.Run()
}

// runMaster runs the guest as node 0 of a live cluster whose slaves connect
// to addr.
func runMaster(addr string, im *dqemu.Image, cfg live.Config, stderr io.Writer) (*dqemu.Result, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	fmt.Fprintf(stderr, "dqemu: waiting for %d slave(s) on %s\n", cfg.Core.Slaves, ln.Addr())
	return live.RunMaster(ln, im, cfg)
}

// printStats is -stats: the rows of the run, or of a slave's node.
func printStats(stderr io.Writer, rows []metrics.Row) {
	fmt.Fprintf(stderr, "\n--- run statistics ---\n")
	for _, row := range rows {
		fmt.Fprintln(stderr, row)
	}
}

// writeOut writes one requested output through write: nothing for an empty
// path, stderr for "-", else the named file.
func writeOut(path string, stderr io.Writer, write func(io.Writer) error) error {
	switch path {
	case "":
		return nil
	case "-":
		return write(stderr)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
