// Command bench is the repository's one benchmark: host time and virtual
// time, five workloads, end-to-end metrics from untraced iterations and
// per-layer attribution from one traced iteration. See README.md.
//
//	bench/run.sh                          every workload, traced, tables on stdout
//	bench/run.sh -workload hot_compute    one workload
//	bench/run.sh -out a.json              also write the full record
//	bench/run.sh -compare a.json b.json   judge b against a
//	bench/run.sh -regen-expected
//
// BENCHMARK.json's driver runs it as
// "--workload W --seed N --seconds S --trace 0|1" and reads the last line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workloadName := fs.String("workload", "all", "workload to run, or all (each in its own child process)")
	seed := fs.Int64("seed", defaultSeed, "seed every generated input is made from")
	seconds := fs.Int("seconds", 20, "the timed loop of a workload lasts at least this long (and at least the table's iteration count)")
	trace := fs.Int("trace", 1, "1: also run the traced iteration and layer replays and report per-layer metrics; 0: end-to-end only")
	scale := fs.String("scale", "full", "full or smoke (1 iteration, tiny inputs: proves the harness, measures nothing)")
	out := fs.String("out", "", "write the full record (JSON) to this file")
	traceOut := fs.String("trace-out", "", "write the traced iteration's spans (Chrome trace_event JSON) to this file")
	compare := fs.Bool("compare", false, "compare two record files: -compare A.json B.json")
	regen := fs.Bool("regen-expected", false, "regenerate bench/expected.json, the pinned references, and exit; rebuild afterwards")
	recordFD := fs.Int("record-fd", 0, "internal: write the record to this inherited file descriptor")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *scale != "full" && *scale != "smoke" {
		return fmt.Errorf("-scale must be full or smoke")
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *scale == "smoke", log: os.Stderr}

	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two record files")
		}
		return compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	case *regen:
		// Run from the repository root (run.sh) or from bench/ (go run .).
		path := "bench/expected.json"
		if _, err := os.Stat("expected.json"); err == nil {
			path = "expected.json"
		}
		return regenExpected(path)
	case fs.NArg() != 0:
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}

	rec := newRecord(o)
	if *workloadName == "all" {
		// Each workload runs in a child process, so heap and GC state of one
		// do not leak into the next.
		for i := range workloadTable {
			child, err := runChild(workloadTable[i].Name, o, *traceOut, stdout)
			if err != nil {
				return err
			}
			rec.Workloads = append(rec.Workloads, child.Workloads...)
		}
	} else {
		w, ok := findWorkload(*workloadName)
		if !ok {
			return fmt.Errorf("unknown workload %q", *workloadName)
		}
		wr, tr, err := runWorkload(w, o)
		if err != nil {
			return err
		}
		rec.Workloads = append(rec.Workloads, wr)
		if *traceOut != "" && tr != nil {
			if err := writeTrace(*traceOut, tr); err != nil {
				return err
			}
		}
		printWorkload(stdout, wr)
		if *recordFD > 0 {
			f := os.NewFile(uintptr(*recordFD), "record")
			if err := writeJSON(f, rec); err != nil {
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		if err := writeJSON(f, rec); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if len(rec.Workloads) == 1 {
		// The driver's contract: one JSON object as the last line.
		line, err := json.Marshal(driverLineFor(rec.Workloads[0], o.trace))
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return nil
}

// runChild runs one workload in a child process of this binary and reads
// its record back over a pipe.
func runChild(name string, o options, traceOut string, stdout io.Writer) (record, error) {
	var rec record
	exe, err := os.Executable()
	if err != nil {
		return rec, err
	}
	r, w, err := os.Pipe()
	if err != nil {
		return rec, err
	}
	defer r.Close()
	trace := "0"
	if o.trace {
		trace = "1"
	}
	args := []string{"-workload", name, "-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.Itoa(o.seconds),
		"-scale", o.scaleName(), "-trace", trace, "-record-fd", "3"}
	if traceOut != "" {
		args = append(args, "-trace-out", traceOut+"."+name+".json")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = stdout, os.Stderr
	cmd.ExtraFiles = []*os.File{w}
	if err := cmd.Start(); err != nil {
		w.Close()
		return rec, err
	}
	w.Close()
	decodeErr := json.NewDecoder(r).Decode(&rec)
	if err := cmd.Wait(); err != nil {
		return rec, fmt.Errorf("workload %s: %w", name, err)
	}
	if decodeErr != nil {
		return rec, fmt.Errorf("workload %s: reading its record: %w", name, decodeErr)
	}
	return rec, nil
}

func writeTrace(path string, tr *tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// regenExpected recomputes every pinned reference for the default seed, at
// both scales, from single-node interpreter runs, and writes the file.
func regenExpected(path string) error {
	exp := expectedFile{}
	for _, smoke := range []bool{false, true} {
		refs, err := interpReferences(smoke)
		if err != nil {
			return err
		}
		exp[options{smoke: smoke}.scaleName()] = refs
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeJSON(f, exp); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
