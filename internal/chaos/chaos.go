// Package chaos is the coherence torture suite: it runs self-checking
// workloads on the simulated cluster under randomized-but-seeded fault
// plans (internal/netsim fault injection) and checks protocol invariants
// after every run. A seed fully determines the fault schedule and the
// verdict, so any failure is reproducible: Run(Options{Seed: N}) replays
// it, and the battery's tests print the failing plan as the JSON a
// scenario spec's "faults" block takes (scenarios/canneal-chaos.json is the
// model) to try it on another guest.
//
// Two fault classes are derived from each seed:
//
//   - recoverable: drop/dup/jitter/reorder rates plus optional stall
//     windows the reliable transport must absorb. The run must finish with
//     the reference exit code and byte-identical console output, and the
//     post-run coherence state must satisfy every invariant below.
//   - crash: one slave dies permanently mid-run. The run must end with a
//     structured *core.NodeLostError (pages re-homed), never a hang.
//
// Invariants checked at quiesce:
//
//  1. directory/page-table agreement: a node holding a Shared copy appears
//     in the directory's sharer set (or owns the page); a node holding a
//     Modified copy is the directory's owner.
//  2. single writer: at most one node holds any page writable.
//  3. no stuck transactions: no directory entry is busy, waiting for acks,
//     or holding queued requests after the event queue drains.
//  4. futex quiescence: no thread is left parked on a futex.
//  5. linearizable outcomes: the guest's own mutex/atomic/CAS/false-sharing
//     checksums match their closed-form values ("torture PASS"), and the
//     whole console equals the fault-free reference run's byte for byte.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"

	"dqemu/internal/core"
	"dqemu/internal/mem"
	"dqemu/internal/netsim"
	"dqemu/internal/workloads"
)

// Options configures one torture run.
type Options struct {
	// Seed determines the fault plan (and class). Required.
	Seed int64
	// Slaves is the cluster size (default 2).
	Slaves int
	// Threads/Rounds size the torture workload (defaults 4/24).
	Threads int
	Rounds  int
	// Broken selects a deliberately-broken transport ablation the suite
	// must catch: "" (off), "noretry" (drops are never repaired) or
	// "nodedup" (duplicates and reordering reach the protocol).
	Broken string
	// Sanitize runs DQSan alongside the fault plan. The torture workload is
	// race-free, so any report is a violation: faults must not be able to
	// fabricate a happens-before gap that isn't there.
	Sanitize bool
}

func (o *Options) defaults() {
	if o.Slaves <= 0 {
		o.Slaves = 2
	}
	if o.Threads <= 0 {
		o.Threads = 4
	}
	if o.Rounds <= 0 {
		o.Rounds = 24
	}
}

// Report is the deterministic verdict for one seed.
type Report struct {
	Seed  int64
	Class string // "recoverable" or "crash"
	Plan  string
	// Pass is true when every check for the class held.
	Pass bool
	// Violations lists failed invariants (empty when Pass).
	Violations []string
	// ExitCode/TimeNs describe the run (zero when the run errored).
	ExitCode int64
	TimeNs   int64
	Err      string // run error, "" on clean exit
	Faults   netsim.FaultStats
	Rel      netsim.RelStats
}

// PlanForSeed derives the fault plan from a seed. Roughly one seed in five
// is a crash-class plan; the rest are recoverable.
func PlanForSeed(seed int64, slaves int) (netsim.FaultPlan, string) {
	rng := rand.New(rand.NewSource(seed))
	plan := netsim.FaultPlan{Seed: seed}
	if rng.Intn(5) == 0 && slaves > 0 {
		// Crash class: one slave dies somewhere in the first 40 ms.
		plan.Crashes = []netsim.Crash{{
			Node: int32(1 + rng.Intn(slaves)),
			AtNs: 1_000_000 + rng.Int63n(39_000_000),
		}}
		return plan, "crash"
	}
	plan.DropRate = rng.Float64() * 0.15
	plan.DupRate = rng.Float64() * 0.15
	plan.JitterNs = rng.Int63n(400_000)
	plan.ReorderRate = rng.Float64() * 0.10
	for i := rng.Intn(3); i > 0; i-- {
		node := int32(rng.Intn(slaves + 1))
		from := rng.Int63n(30_000_000)
		plan.Stalls = append(plan.Stalls, netsim.Window{
			Node: node, FromNs: from, ToNs: from + 1_000_000 + rng.Int63n(10_000_000),
		})
	}
	return plan, "recoverable"
}

// reference runs the workload fault-free and returns its console and exit
// code; chaos runs must reproduce both exactly.
func reference(o Options) (string, int64, error) {
	im, err := workloads.Torture(o.Threads, o.Rounds)
	if err != nil {
		return "", 0, err
	}
	cfg := core.DefaultConfig()
	cfg.Slaves = o.Slaves
	res, err := core.Run(im, cfg)
	if err != nil {
		return "", 0, fmt.Errorf("chaos: fault-free reference run failed: %w", err)
	}
	return res.Console, res.ExitCode, nil
}

// Run executes one seeded torture run and verdicts it.
func Run(o Options) (*Report, error) {
	o.defaults()
	refConsole, refExit, err := reference(o)
	if err != nil {
		return nil, err
	}
	return runAgainst(o, refConsole, refExit)
}

// runAgainst is Run with a precomputed reference (the battery shares one).
func runAgainst(o Options, refConsole string, refExit int64) (*Report, error) {
	im, err := workloads.Torture(o.Threads, o.Rounds)
	if err != nil {
		return nil, err
	}
	plan, class := PlanForSeed(o.Seed, o.Slaves)
	rep := &Report{Seed: o.Seed, Class: class, Plan: plan.String()}

	cfg := core.DefaultConfig()
	cfg.Slaves = o.Slaves
	cfg.Faults = &plan
	cfg.Sanitizer = o.Sanitize
	// Chaos runs must never hang: a run that outlives this budget is a
	// liveness failure, reported instead of waited out.
	cfg.MaxTimeNs = 20_000_000_000
	switch o.Broken {
	case "":
	case "noretry":
		cfg.Retry = netsim.DefaultRetryPolicy()
		cfg.Retry.NoRetry = true
	case "nodedup":
		cfg.Retry = netsim.DefaultRetryPolicy()
		cfg.Retry.NoDedup = true
	default:
		return nil, fmt.Errorf("chaos: unknown ablation %q", o.Broken)
	}

	cl, err := core.NewCluster(im, cfg)
	if err != nil {
		return nil, err
	}
	res, runErr := cl.Run()
	if res != nil {
		rep.ExitCode = res.ExitCode
		rep.TimeNs = res.TimeNs
		rep.Faults = res.Faults
		rep.Rel = res.Rel
	}
	if runErr != nil {
		rep.Err = runErr.Error()
	}

	switch class {
	case "crash":
		// Graceful degradation: the run must stop with a structured
		// node-loss report, not hang and not "succeed" silently.
		if nle, ok := runErr.(*core.NodeLostError); ok {
			if int32(nle.Node) != plan.Crashes[0].Node {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("wrong node reported lost: %d (crashed %d)", nle.Node, plan.Crashes[0].Node))
			}
		} else if runErr == nil {
			// The crash can land after the workload finished; that is a
			// legitimate pass, but then the output must match the reference.
			rep.Violations = append(rep.Violations, checkOutput(res.Console, res.ExitCode, refConsole, refExit)...)
		} else {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("unstructured failure: %v", runErr))
		}
	default:
		if runErr != nil {
			rep.Violations = append(rep.Violations, fmt.Sprintf("run error: %v", runErr))
			break
		}
		rep.Violations = append(rep.Violations, checkOutput(res.Console, res.ExitCode, refConsole, refExit)...)
		rep.Violations = append(rep.Violations, CheckInvariants(cl.Inspect())...)
	}
	// DQSan must stay silent on the race-free torture workload no matter
	// what the transport did to the clock-carrying messages. Only clean
	// completions are judged: a crashed node takes unacknowledged clock
	// state down with it, so a cut-short run proves nothing either way.
	if o.Sanitize && runErr == nil && res != nil && res.San != nil {
		for _, r := range res.San.Races {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("sanitizer false positive under faults: %s tid%d@%#x vs tid%d@%#x",
					r.Kind, r.TID, r.PC, r.PrevTID, r.PrevPC))
		}
	}
	rep.Pass = len(rep.Violations) == 0
	return rep, nil
}

func checkOutput(console string, exit int64, refConsole string, refExit int64) []string {
	var v []string
	if exit != refExit {
		v = append(v, fmt.Sprintf("exit code %d != reference %d", exit, refExit))
	}
	if console != refConsole {
		v = append(v, fmt.Sprintf("console diverged from fault-free reference:\n--- got ---\n%s--- want ---\n%s", console, refConsole))
	}
	return v
}

// CheckInvariants validates the post-run coherence state (see package doc).
func CheckInvariants(ins *core.Inspection) []string {
	var v []string
	for _, ps := range ins.Dir {
		if ps.Busy || ps.AcksLeft != 0 || ps.Pending != 0 {
			v = append(v, fmt.Sprintf("page %#x: stuck transaction (busy=%v acks=%d pending=%d)",
				ps.Page, ps.Busy, ps.AcksLeft, ps.Pending))
		}
		if ps.Retired {
			continue // split pages: accesses remap to the shadows
		}
		if ps.Owner > 0 {
			if !ps.Sharers.Empty() {
				v = append(v, fmt.Sprintf("page %#x: owner %d coexists with sharers %v", ps.Page, ps.Owner, ps.Sharers))
			}
			if ps.Owner < len(ins.NodePerms) && ins.NodePerms[ps.Owner][ps.Page] != mem.PermReadWrite {
				v = append(v, fmt.Sprintf("page %#x: directory owner %d holds %v, not M",
					ps.Page, ps.Owner, ins.NodePerms[ps.Owner][ps.Page]))
			}
		}
		for nodeID, perms := range ins.NodePerms {
			perm, resident := perms[ps.Page]
			if !resident || perm == mem.PermNone {
				continue
			}
			if perm == mem.PermReadWrite {
				if nodeID == 0 && ps.Owner > 0 {
					v = append(v, fmt.Sprintf("page %#x: master holds M but node %d owns", ps.Page, ps.Owner))
				}
				if nodeID != 0 && ps.Owner != nodeID {
					v = append(v, fmt.Sprintf("page %#x: node %d holds M without ownership (owner %d)",
						ps.Page, nodeID, ps.Owner))
				}
			} else if nodeID != 0 && ps.Owner != nodeID && !ps.Sharers.Has(nodeID) {
				v = append(v, fmt.Sprintf("page %#x: node %d holds S copy missing from sharer set %v",
					ps.Page, nodeID, ps.Sharers))
			}
		}
	}
	// Single writer per page, across every resident page (including pages
	// without directory entries).
	writers := map[uint64][]int{}
	for nodeID, perms := range ins.NodePerms {
		for page, perm := range perms {
			if perm == mem.PermReadWrite {
				writers[page] = append(writers[page], nodeID)
			}
		}
	}
	var pages []uint64
	for page, ws := range writers {
		if len(ws) > 1 {
			pages = append(pages, page)
		}
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	for _, page := range pages {
		sort.Ints(writers[page])
		v = append(v, fmt.Sprintf("page %#x: multiple writers %v", page, writers[page]))
	}
	if ins.FutexWaiting != 0 {
		v = append(v, fmt.Sprintf("%d threads still parked on futexes", ins.FutexWaiting))
	}
	return v
}

// Battery runs a contiguous range of seeds against one shared reference.
type Battery struct {
	Reports []*Report
	Passes  int
	Fails   int
}

// RunBattery executes runs seeds starting at startSeed.
func RunBattery(startSeed int64, runs int, o Options, progress func(*Report)) (*Battery, error) {
	o.defaults()
	refConsole, refExit, err := reference(o)
	if err != nil {
		return nil, err
	}
	b := &Battery{}
	for i := 0; i < runs; i++ {
		o.Seed = startSeed + int64(i)
		rep, err := runAgainst(o, refConsole, refExit)
		if err != nil {
			return nil, err
		}
		if rep.Pass {
			b.Passes++
		} else {
			b.Fails++
		}
		b.Reports = append(b.Reports, rep)
		if progress != nil {
			progress(rep)
		}
	}
	return b, nil
}
