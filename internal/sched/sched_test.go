package sched

import (
	"fmt"
	"testing"

	"dqemu/internal/metrics"
)

// mockAct records actuations.
type mockAct struct {
	moves  []string
	splits []uint64

	denySplit bool
}

func (a *mockAct) MigrateThread(tid int64, to int) {
	a.moves = append(a.moves, fmt.Sprintf("%d->%d", tid, to))
}
func (a *mockAct) ForceSplit(page uint64) bool {
	if a.denySplit {
		return false
	}
	a.splits = append(a.splits, page)
	return true
}
func (a *mockAct) Tracef(format string, args ...interface{}) {}

func newTestPolicy(act Actuator) *Policy {
	return New(metrics.NewRegistry(), act)
}

// TestAffinityMigration: a thread faulting overwhelmingly on pages another
// node owns migrates there.
func TestAffinityMigration(t *testing.T) {
	act := &mockAct{}
	pol := newTestPolicy(act)
	in := Inputs{
		NowNs:        1_000_000,
		ActiveNodes:  []int{1, 2},
		ThreadNodes:  map[int64]int{2: 1, 3: 2},
		CoresPerNode: 4,
	}
	for i := 0; i < 20; i++ {
		pol.NoteFault(2, 1, 2) // tid 2 on node 1 keeps faulting on node 2's pages
	}
	pol.Tick(in)
	if len(act.moves) != 1 || act.moves[0] != "2->2" {
		t.Fatalf("moves = %v, want [2->2]", act.moves)
	}
	if pol.Stats().Migrations != 1 {
		t.Fatalf("Migrations = %d, want 1", pol.Stats().Migrations)
	}
}

// TestPingPongHysteresis: symmetric sharing (both threads fault toward each
// other's node with similar pressure) must NOT trigger a swap — hysteresis
// holds placement stable, and the per-tick budget prevents committing both
// halves of a pair even when one side does qualify.
func TestPingPongHysteresis(t *testing.T) {
	act := &mockAct{}
	pol := newTestPolicy(act)
	in := Inputs{
		NowNs:        1_000_000,
		ActiveNodes:  []int{1, 2},
		ThreadNodes:  map[int64]int{2: 1, 3: 2},
		CoresPerNode: 4,
	}
	// A naive policy sees tid 2 pulled to node 2 and tid 3 pulled to node 1
	// and swaps them — placement oscillates forever. The pull is symmetric
	// AND each thread also faults on pages its own node owns (the pair's
	// buffer bounces), so hysteresis (2x) must reject both.
	for i := 0; i < 20; i++ {
		pol.NoteFault(2, 1, 2)
		pol.NoteFault(2, 1, 1) // NoteFault(owner==node) is dropped; use a
		pol.NoteFault(3, 2, 1)
		pol.NoteFault(3, 2, 2)
	}
	// owner==node faults are dropped by NoteFault, so seed the same-node
	// pull through the table the way the directory would: via a third
	// thread's pages homed at the current node. Simulate by direct counts.
	pol.aff[2][1] = 15 // pull toward staying (pages homed at node 1)
	pol.aff[3][2] = 15
	pol.Tick(in)
	if len(act.moves) != 0 {
		t.Fatalf("hysteresis failed: moves = %v, want none", act.moves)
	}

	// Over repeated ticks the state must stay stable, not oscillate.
	for i := 0; i < 10; i++ {
		for j := 0; j < 20; j++ {
			pol.NoteFault(2, 1, 2)
			pol.NoteFault(3, 2, 1)
		}
		pol.aff[2][1] = pol.aff[2][2] - 2 // near-symmetric pull
		pol.aff[3][2] = pol.aff[3][1] - 2
		in.NowNs += PeriodNs
		pol.Tick(in)
	}
	if len(act.moves) != 0 {
		t.Fatalf("placement oscillated: moves = %v", act.moves)
	}
}

// TestBudgetCommitsOneSideOfAPair: when BOTH pair members show a genuine
// one-sided pull, only one moves per tick — after it lands, co-location
// kills the partner's signal instead of swapping the pair.
func TestBudgetCommitsOneSideOfAPair(t *testing.T) {
	act := &mockAct{}
	pol := newTestPolicy(act)
	in := Inputs{
		NowNs:        1_000_000,
		ActiveNodes:  []int{1, 2},
		ThreadNodes:  map[int64]int{2: 1, 3: 2},
		CoresPerNode: 4,
	}
	for i := 0; i < 30; i++ {
		pol.NoteFault(2, 1, 2)
	}
	for i := 0; i < 20; i++ {
		pol.NoteFault(3, 2, 1)
	}
	pol.Tick(in)
	if len(act.moves) != 1 || act.moves[0] != "2->2" {
		t.Fatalf("moves = %v, want exactly [2->2] (strongest signal, budget 1)", act.moves)
	}
}

// TestCooldown: a freshly migrated thread stays put even under pressure.
func TestCooldown(t *testing.T) {
	act := &mockAct{}
	pol := newTestPolicy(act)
	in := Inputs{
		NowNs:        1_000_000,
		ActiveNodes:  []int{1, 2},
		ThreadNodes:  map[int64]int{2: 1},
		CoresPerNode: 4,
	}
	for i := 0; i < 20; i++ {
		pol.NoteFault(2, 1, 2)
	}
	pol.Tick(in)
	if len(act.moves) != 1 {
		t.Fatalf("moves = %v, want one", act.moves)
	}
	in.ThreadNodes[2] = 2
	for i := 0; i < 20; i++ {
		pol.NoteFault(2, 2, 1)
	}
	in.NowNs += PeriodNs // within cooldown
	pol.Tick(in)
	if len(act.moves) != 1 {
		t.Fatalf("cooldown ignored: moves = %v", act.moves)
	}
	for i := 0; i < 20; i++ {
		pol.NoteFault(2, 2, 1)
	}
	in.NowNs += 100 * PeriodNs // past cooldown
	pol.Tick(in)
	if len(act.moves) != 2 {
		t.Fatalf("moves = %v, want two after cooldown", act.moves)
	}
}

// TestLoadBalanceFallback: with no actionable affinity signal, one thread
// moves from the most- to the least-loaded node.
func TestLoadBalanceFallback(t *testing.T) {
	act := &mockAct{}
	pol := newTestPolicy(act)
	in := Inputs{
		NowNs:        1_000_000,
		ActiveNodes:  []int{1, 2},
		ThreadNodes:  map[int64]int{2: 1, 3: 1, 4: 1},
		CoresPerNode: 4,
	}
	pol.Tick(in)
	if len(act.moves) != 1 || act.moves[0] != "2->2" {
		t.Fatalf("moves = %v, want [2->2] (lowest movable tid off the loaded node)", act.moves)
	}
}

// TestProactiveSplit fires ForceSplit once per false-sharing candidate.
func TestProactiveSplit(t *testing.T) {
	act := &mockAct{}
	reg := metrics.NewRegistry()
	pol := New(reg, act)
	// Two nodes write-fault page 7 and it keeps getting invalidated: a
	// false-sharing candidate by the heat map's own flag.
	for i := 0; i < 6; i++ {
		reg.Pages().Fault(7, 1, true)
		reg.Pages().Fault(7, 2, true)
		reg.Pages().Invalidate(7)
	}
	in := Inputs{ActiveNodes: []int{1, 2}, ThreadNodes: map[int64]int{}, CoresPerNode: 4}
	pol.Tick(in)
	if len(act.splits) != 1 || act.splits[0] != 7 {
		t.Fatalf("splits = %v, want [7]", act.splits)
	}
	pol.Tick(in)
	if len(act.splits) != 1 {
		t.Fatalf("split fired twice: %v", act.splits)
	}
}

// TestProactiveSplitRetriesBusyPage: a refused split (busy page) is retried
// on a later tick.
func TestProactiveSplitRetriesBusyPage(t *testing.T) {
	act := &mockAct{denySplit: true}
	reg := metrics.NewRegistry()
	pol := New(reg, act)
	for i := 0; i < 6; i++ {
		reg.Pages().Fault(7, 1, true)
		reg.Pages().Fault(7, 2, true)
		reg.Pages().Invalidate(7)
	}
	in := Inputs{ActiveNodes: []int{1, 2}, ThreadNodes: map[int64]int{}, CoresPerNode: 4}
	pol.Tick(in)
	if len(act.splits) != 0 {
		t.Fatalf("splits = %v, want none while denied", act.splits)
	}
	act.denySplit = false
	pol.Tick(in)
	if len(act.splits) != 1 || act.splits[0] != 7 {
		t.Fatalf("splits = %v, want [7] on retry", act.splits)
	}
}

// TestDecayForgetsOldPhases: affinity from a dead phase fades within a few
// periods so a later phase is not steered by stale pressure.
func TestDecayForgetsOldPhases(t *testing.T) {
	act := &mockAct{}
	pol := newTestPolicy(act)
	in := Inputs{
		NowNs:        1_000_000,
		ActiveNodes:  []int{1, 2},
		ThreadNodes:  map[int64]int{2: 1},
		CoresPerNode: 4,
	}
	for i := 0; i < 100; i++ {
		pol.NoteFault(2, 1, 2)
	}
	// Ticks with cooldown active (the clock stands still): nothing moves,
	// counts decay.
	pol.lastMove[2] = in.NowNs
	for i := 0; i < 8*decayEvery; i++ {
		pol.Tick(in)
	}
	if c := pol.aff[2][2]; c != 0 {
		t.Fatalf("affinity survived 8 decay windows: %d", c)
	}
	if len(act.moves) != 0 {
		t.Fatalf("moves = %v during cooldown, want none", act.moves)
	}
}

// TestDeterministicDecisions: two identically-fed policies make identical
// decision sequences (map iteration order must never leak).
func TestDeterministicDecisions(t *testing.T) {
	run := func() []string {
		act := &mockAct{}
		pol := newTestPolicy(act)
		in := Inputs{
			NowNs:        1_000_000,
			ActiveNodes:  []int{1, 2, 3},
			ThreadNodes:  map[int64]int{2: 1, 3: 1, 4: 2, 5: 3, 6: 2},
			CoresPerNode: 4,
		}
		for i := 0; i < 30; i++ {
			pol.NoteFault(2, 1, 3)
			pol.NoteFault(3, 1, 2)
			pol.NoteFault(4, 2, 3)
			pol.NoteFault(5, 3, 2)
			pol.NoteFault(6, 2, 1)
		}
		for i := 0; i < 5; i++ {
			in.NowNs += PeriodNs
			pol.Tick(in)
		}
		return act.moves
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("decision sequences diverged:\n%v\n%v", a, b)
	}
}
