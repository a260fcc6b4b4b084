// Command dqemu runs a guest program on a simulated DQEMU cluster.
//
// The input is a mini-C source file (.mc), a GA64 assembly file (.s), or a
// prebuilt guest image (.img, from dqemu-cc/dqemu-asm). Guest console
// output goes to stdout; -stats prints the run summary to stderr.
//
//	dqemu -slaves 4 -forward -split prog.mc
//	dqemu -slaves 2 -stats -file input.txt=./local.dat prog.mc
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dqemu"
	"dqemu/internal/trace"
)

func main() {
	cfg := dqemu.DefaultConfig()
	cfg.Stdout = os.Stdout
	flag.IntVar(&cfg.Slaves, "slaves", 0, "number of slave nodes (0 = single-node QEMU baseline)")
	flag.IntVar(&cfg.Cores, "cores", 4, "cores per node")
	flag.BoolVar(&cfg.Forwarding, "forward", false, "enable data forwarding (paper §5.2)")
	flag.BoolVar(&cfg.Splitting, "split", false, "enable page splitting (paper §5.1)")
	flag.BoolVar(&cfg.HintSched, "hints", false, "enable hint-based locality-aware scheduling (paper §5.3)")
	stats := flag.Bool("stats", false, "print run statistics to stderr")
	flag.BoolVar(&cfg.Verify, "verify", false, "prove every trace's lowering symbolically and check its closure compilation structurally; a failed proof compiles the reference lowering, a failed check leaves the trace on the block interpreter, and both are counted in -stats")
	traceFlag := flag.Bool("trace", false, "stream cluster events (messages, faults, syscalls) to stderr")
	flag.BoolVar(&cfg.Adaptive, "adaptive", false, "enable the metrics-driven feedback scheduler (locality and load migration, proactive splits)")
	profile := flag.String("profile", "", "enable the metrics registry and write the JSON snapshot to this file (- for stderr)")
	chromeTrace := flag.String("chrome-trace", "", "record typed spans and write a Chrome trace_event timeline (Perfetto-loadable) to this file")
	var files fileFlags
	flag.Var(&files, "file", "guest VFS file as guestpath=hostpath (repeatable)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: dqemu [flags] prog.mc|prog.s|prog.img")
		flag.PrintDefaults()
		os.Exit(2)
	}
	im, err := dqemu.Load(flag.Arg(0))
	if err != nil {
		fatal(err)
	}

	if *traceFlag {
		cfg.Tracer = trace.New(0, os.Stderr)
	}
	if *chromeTrace != "" && cfg.Tracer == nil {
		// Span recording needs a tracer even without -trace streaming.
		cfg.Tracer = trace.New(0, nil)
	}
	if *profile != "" {
		cfg.Metrics = true
	}

	cluster, err := dqemu.NewCluster(im, cfg)
	if err != nil {
		fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f.host)
		if err != nil {
			fatal(err)
		}
		cluster.VFS().AddFile(f.guest, data)
	}
	res, err := cluster.Run()
	if err != nil {
		fatal(err)
	}
	if *stats {
		printStats(res)
	}
	if *profile != "" {
		if err := writeProfile(*profile, res); err != nil {
			fatal(err)
		}
	}
	if *chromeTrace != "" {
		if err := writeChromeTrace(*chromeTrace, cfg.Tracer); err != nil {
			fatal(err)
		}
	}
	os.Exit(int(res.ExitCode))
}

// writeProfile dumps the run's metrics snapshot as indented JSON.
func writeProfile(path string, res *dqemu.Result) error {
	var w io.Writer = os.Stderr
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res.Metrics)
}

// writeChromeTrace exports the recorded spans as a Chrome trace_event file.
func writeChromeTrace(path string, tr *trace.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printStats(res *dqemu.Result) {
	fmt.Fprintf(os.Stderr, "\n--- run statistics ---\n")
	fmt.Fprintf(os.Stderr, "exit code:      %d\n", res.ExitCode)
	fmt.Fprintf(os.Stderr, "guest time:     %.6f s (virtual)\n", float64(res.TimeNs)/1e9)
	fmt.Fprintf(os.Stderr, "threads:        %d\n", len(res.Threads))
	fmt.Fprintf(os.Stderr, "directory:      reads=%d writes=%d fetches=%d invalidates=%d pushes=%d splits=%d\n",
		res.Dir.Reads, res.Dir.Writes, res.Dir.Fetches, res.Dir.Invalidates, res.Dir.Pushes, res.Dir.Splits)
	fmt.Fprintf(os.Stderr, "network:        %d msgs, %d bytes\n", res.Net.Msgs, res.Net.Bytes)
	fmt.Fprintf(os.Stderr, "syscalls:       %d delegated\n", res.OS.Global)
	var vSB, vDemote, vT3, vT3Fail uint64
	for _, n := range res.Nodes {
		fmt.Fprintf(os.Stderr, "node %d:         threads=%d exec-insns=%d faults=%d local-sys=%d global-sys=%d\n",
			n.Node, n.Threads, n.Engine.ExecInsns, n.PageFaults, n.LocalSys, n.GlobalSys)
		vSB += n.Engine.VerifiedSuperblocks
		vDemote += n.Engine.VerifyDemotions
		vT3 += n.Engine.VerifiedTier3
		vT3Fail += n.Engine.Tier3CheckFailures
	}
	if vSB+vDemote+vT3+vT3Fail > 0 {
		fmt.Fprintf(os.Stderr, "verify:         traces proved=%d demoted=%d compilations checked=%d rejected=%d\n",
			vSB, vDemote, vT3, vT3Fail)
	}
	if res.Sched.Ticks > 0 {
		fmt.Fprintf(os.Stderr, "adaptive:       ticks=%d migrations=%d proactive-splits=%d\n",
			res.Sched.Ticks, res.Sched.Migrations, res.Sched.ProactiveSplits)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dqemu:", err)
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
