// dqemu-peep mines peephole rules from micro-op sequence profiles and
// proves them sound before they are allowed into the checked-in rules file.
//
// The mine -> prove -> apply workflow:
//
//  1. Mine: run the scenarios/singlenode-*.json specs with peephole rules
//     disabled (or read an existing -profile JSON dump) and aggregate the
//     execution-weighted uopseq.* n-gram counters. Run from the repo root.
//  2. Select: a rule schema from the engine's catalog is a candidate when
//     its trigger sequence actually occurs in the mined profile (weight >=
//     -minweight). Schemas that never fire on real workloads stay out of
//     the rules file rather than padding it.
//  3. Prove: every candidate must survive the symbolic equivalence engine
//     (tcg.ProveRuleSymbolic — registers universally quantified, immediates
//     swept across a boundary battery) AND randomized differential state
//     replay (tcg.ProveRule) as a cross-check. A rule the symbolic engine
//     cannot discharge for all inputs is rejected, not sampled.
//  4. Write: the surviving set, with its mined weights and a `schema`
//     version directive, is written as internal/tcg/rules/peep.rules and
//     embedded into the engine.
//
// Usage:
//
//	dqemu-peep -run -out internal/tcg/rules/peep.rules   # mine + prove + write
//	dqemu-peep -run -profile prof.json -out ...          # mine from a dump
//	dqemu-peep -check internal/tcg/rules/peep.rules      # re-prove checked-in set
//	dqemu-peep -prove=replay -check ...                  # randomized replay only
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"dqemu/internal/scenario"
	"dqemu/internal/tcg"
)

func main() {
	run := flag.Bool("run", false, "mine rules from a profile and write the proven set")
	check := flag.String("check", "", "parse this rules file and re-prove every enabled rule")
	profile := flag.String("profile", "", "mine from this JSON profile dump instead of running the suite")
	out := flag.String("out", "", "write the mined rules file here (default stdout)")
	trials := flag.Int("trials", 4096, "randomized differential replay trials per rule")
	seed := flag.Int64("seed", 1, "replay RNG seed")
	minWeight := flag.Uint64("minweight", 1, "minimum mined trigger-sequence weight for a rule to be emitted")
	prove := flag.String("prove", "symbolic", "proof mode: symbolic (symbolic proof + replay cross-check) or replay (randomized replay only)")
	flag.Parse()

	if *prove != "symbolic" && *prove != "replay" {
		fmt.Fprintf(os.Stderr, "dqemu-peep: -prove must be symbolic or replay, got %q\n", *prove)
		os.Exit(2)
	}

	switch {
	case *check != "":
		if err := checkRules(*check, *prove, *trials, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "dqemu-peep: %v\n", err)
			os.Exit(1)
		}
	case *run:
		if err := mineRules(*profile, *out, *prove, *trials, *seed, *minWeight); err != nil {
			fmt.Fprintf(os.Stderr, "dqemu-peep: %v\n", err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// proveOne runs the selected proof pipeline for a single rule. Symbolic
// mode proves for all register inputs and keeps the randomized replay as
// an independent cross-check of the symbolic engine itself.
func proveOne(name, mode string, trials int, seed int64) error {
	if mode == "symbolic" {
		if err := tcg.ProveRuleSymbolic(name, seed); err != nil {
			return err
		}
	}
	return tcg.ProveRule(name, trials, seed)
}

func proveDesc(mode string, trials int) string {
	if mode == "symbolic" {
		return fmt.Sprintf("symbolic + %d replay trials", trials)
	}
	return fmt.Sprintf("%d replay trials", trials)
}

// checkRules re-proves every rule enabled in the checked-in file. CI runs
// this so a schema edit that silently breaks a proven rewrite fails loudly.
// An empty rule set is an error: a catalog that parses but enables nothing
// means the engine would silently run with the peephole off.
func checkRules(path, mode string, trials int, seed int64) error {
	text, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	rules, err := tcg.ParsePeepRules(string(text))
	if err != nil {
		return err
	}
	if len(rules) == 0 {
		return fmt.Errorf("%s: catalog is empty — no rules enabled (re-mine with -run, or delete the file to disable the peephole explicitly)", path)
	}
	names := make([]string, 0, len(rules))
	for name := range rules {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := proveOne(name, mode, trials, seed); err != nil {
			return err
		}
		fmt.Printf("proved %-12s (%s)\n", name, proveDesc(mode, trials))
	}
	fmt.Printf("%s: %d rules proved\n", path, len(names))
	return nil
}

// mineRules aggregates uopseq.* weights, selects catalog schemas whose
// trigger sequence occurs, proves each, and writes the rules file.
func mineRules(profilePath, outPath, mode string, trials int, seed int64, minWeight uint64) error {
	var weights map[string]uint64
	var source string
	var err error
	if profilePath != "" {
		weights, err = mineFromDump(profilePath)
		source = profilePath
	} else {
		weights, err = mineFromSuite()
		source = "singlenode suite, peephole disabled"
	}
	if err != nil {
		return err
	}

	type mined struct {
		info   tcg.PeepRuleInfo
		weight uint64
	}
	var keep []mined
	for _, info := range tcg.PeepRuleCatalog() {
		w := weights["uopseq."+info.Seq]
		if w < minWeight {
			fmt.Fprintf(os.Stderr, "skip  %-12s trigger %q weight %d < %d\n", info.Name, info.Seq, w, minWeight)
			continue
		}
		if err := proveOne(info.Name, mode, trials, seed); err != nil {
			return fmt.Errorf("candidate %s refuted: %w", info.Name, err)
		}
		fmt.Fprintf(os.Stderr, "keep  %-12s trigger %q weight %d, proved (%s)\n", info.Name, info.Seq, w, proveDesc(mode, trials))
		keep = append(keep, mined{info, w})
	}

	var b strings.Builder
	b.WriteString(`# dqemu peephole rules — mined from -profile uopseq counters by
# cmd/dqemu-peep, proven sound for ALL register inputs by the symbolic
# equivalence engine (tcg.ProveRuleSymbolic over internal/tcg/symeq) and
# cross-checked by randomized differential state replay (tcg.ProveRule;
# see EXPERIMENTS.md for the mine -> prove -> apply workflow).
# Regenerate with:
#
#   go run ./cmd/dqemu-peep -run -out internal/tcg/rules/peep.rules
#
# Verify without rewriting:
#
#   go run ./cmd/dqemu-peep -prove=symbolic -check internal/tcg/rules/peep.rules
#
# weight is the occurrence count of the rule's trigger sequence over the
# mining run's traces, each trace counted once per dispatch into it
# (`)
	b.WriteString(source)
	b.WriteString(").\n")
	fmt.Fprintf(&b, "schema %d\n", tcg.PeepRulesSchema)
	for _, m := range keep {
		fmt.Fprintf(&b, "rule %s weight=%d\n", m.info.Name, m.weight)
	}
	if _, err := tcg.ParsePeepRules(b.String()); err != nil {
		return fmt.Errorf("generated file does not round-trip: %w", err)
	}
	if outPath == "" {
		fmt.Print(b.String())
		return nil
	}
	return os.WriteFile(outPath, []byte(b.String()), 0o644)
}

// mineFromSuite runs the single-node specs with peephole rules ablated off
// (so the mined stream is the raw lowered form) and aggregates uopseq.*
// counters across every row's metrics snapshot.
func mineFromSuite() (map[string]uint64, error) {
	paths, _ := filepath.Glob(filepath.Join("scenarios", "singlenode-*.json"))
	if len(paths) == 0 {
		return nil, fmt.Errorf("no scenarios/singlenode-*.json specs (run from the repo root)")
	}
	weights := map[string]uint64{}
	for _, p := range paths {
		s, err := scenario.Load(p)
		if err != nil {
			return nil, err
		}
		s.Knobs.NoPeephole, s.Knobs.Metrics = true, true
		rows, err := scenario.Run(s, scenario.Options{Progress: os.Stderr})
		if err != nil {
			return nil, err
		}
		for _, row := range rows {
			if row.ExitCode != 0 || row.Metrics == nil {
				return nil, fmt.Errorf("%s: exit %d, metrics snapshot %v", p, row.ExitCode, row.Metrics != nil)
			}
			for k, v := range row.Metrics.Counters {
				if strings.HasPrefix(k, "uopseq.") {
					weights[k] += v
				}
			}
		}
	}
	return weights, nil
}

// mineFromDump walks an arbitrary JSON profile dump (a -profile metrics
// snapshot, a dqemu-bench -json report, or anything nesting them) and sums
// every numeric field keyed uopseq.*.
func mineFromDump(path string) (map[string]uint64, error) {
	text, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var root interface{}
	if err := json.Unmarshal(text, &root); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	weights := map[string]uint64{}
	var walk func(interface{})
	walk = func(v interface{}) {
		switch t := v.(type) {
		case map[string]interface{}:
			for k, v := range t {
				if n, ok := v.(float64); ok && strings.HasPrefix(k, "uopseq.") {
					weights[k] += uint64(n)
					continue
				}
				walk(v)
			}
		case []interface{}:
			for _, v := range t {
				walk(v)
			}
		}
	}
	walk(root)
	if len(weights) == 0 {
		return nil, fmt.Errorf("%s: no uopseq.* counters found (run with metrics/-profile enabled)", path)
	}
	return weights, nil
}
