// Command dqemu-bench runs scenario specs (internal/scenario) on the
// simulated cluster: the tables and figures of the DQEMU paper (ICPP '20)
// under scenarios/paper, the regression suite under scenarios. Results are
// deterministic virtual time; see EXPERIMENTS.md for the mapping to the
// paper's numbers. The exit status is nonzero when any gate fails.
//
// Usage:
//
//	dqemu-bench -spec scenarios/paper/fig5.json    # one figure
//	dqemu-bench -spec scenarios/paper              # every paper spec
//	dqemu-bench -spec scenarios -smoke -json out.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"time"

	"dqemu/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && err != flag.ErrHelp {
		fmt.Fprintf(os.Stderr, "dqemu-bench: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole command: it returns an error for bad usage, a scenario
// that could not run, and any failed gate.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dqemu-bench", flag.ContinueOnError)
	specPath := fs.String("spec", "", "spec file or directory of *.json specs (required)")
	smoke := fs.Bool("smoke", false, "divide scalable workload arguments down for a CI smoke run")
	verify := fs.Bool("verify", false, "symbolically prove every trace's lowering and structurally check its closure compilation; any failure is a failed gate")
	jsonOut := fs.String("json", "", "write the report as JSON to this file")
	quiet := fs.Bool("q", false, "suppress per-run progress")
	cpuProf := fs.String("cpuprofile", "", "write a host CPU profile of the whole run to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *specPath == "" {
		return fmt.Errorf("-spec <file|dir> is required")
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	var specs []*scenario.Spec
	st, err := os.Stat(*specPath)
	if err != nil {
		return err
	}
	if st.IsDir() {
		specs, err = scenario.LoadDir(*specPath)
	} else {
		var s *scenario.Spec
		s, err = scenario.Load(*specPath)
		specs = []*scenario.Spec{s}
	}
	if err != nil {
		return err
	}
	opts := scenario.Options{Verify: *verify}
	if *smoke {
		opts.Scale = scenario.Smoke
	}
	if !*quiet {
		opts.Progress = os.Stderr
	}
	start := time.Now()
	rep, err := scenario.RunAll(specs, opts)
	if err != nil {
		return err
	}
	rep.Print(stdout)
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			return err
		}
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "[%.1fs host time]\n", time.Since(start).Seconds())
	}
	if n := rep.Fails(); n > 0 {
		return fmt.Errorf("%d gate(s) failed", n)
	}
	return nil
}
