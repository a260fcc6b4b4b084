// Package metrics is DQEMU's cluster-wide observability layer: a typed
// registry of log-scaled latency histograms that every subsystem records
// into, plus two domain-specific keyed tables — a per-page
// fault/invalidation heat map (the input of false-sharing triage, §5.1) and
// a per-word lock contention profile (§4.4's distributed futex). The run's
// own totals are not copied in: a Snapshot carries them as the rendered Rows
// of core.Result.
//
// Under the simulator all values are virtual time, so a snapshot is a pure
// function of the run's inputs and seed: identically-seeded runs must
// produce byte-identical snapshot JSON (the determinism suite asserts this).
// The registry is single-goroutine by design — it is driven from the one
// goroutine that drives its cluster (the sim kernel's callbacks, or a live
// node's event loop, on the wall clock), and never shared across goroutines.
//
// Every handle type no-ops on a nil receiver without allocating, so hot
// paths are instrumented unconditionally and a disabled configuration
// (core.Config.Metrics == false, nil registry) costs zero allocations —
// enforced by testing.AllocsPerRun in the core and metrics test suites.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
)

// ---- Registry ----

// Registry holds all metrics of one cluster run. The zero value is not
// usable; construct with NewRegistry. A nil *Registry hands out nil handles,
// which record nothing.
type Registry struct {
	hists map[string]*Histogram
	pages *HeatMap
	locks *LockProfile
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		hists: map[string]*Histogram{},
		pages: &HeatMap{pages: map[uint64]*PageHeat{}},
		locks: &LockProfile{words: map[uint64]*lockWord{}},
	}
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Pages returns the per-page heat map.
func (r *Registry) Pages() *HeatMap {
	if r == nil {
		return nil
	}
	return r.pages
}

// Locks returns the lock contention profile.
func (r *Registry) Locks() *LockProfile {
	if r == nil {
		return nil
	}
	return r.locks
}

// ---- Histogram ----

// Log-linear bucket layout (HdrHistogram-style): values 0..histSub-1 get
// exact unit buckets; above that each power of two is divided into histSub
// linear sub-buckets, bounding the relative bucket width to 1/histSub.
const (
	histSub     = 8
	histBuckets = 62 * histSub
	// histRetain caps the exact-percentile sample store. Below the cap,
	// percentiles are computed from the retained samples (exact); past it
	// the histogram falls back to bucket midpoints (≤ ~6% relative error)
	// and the snapshot's Exact flag drops to false.
	histRetain = 1 << 17
)

// Histogram records int64 measurements (virtual nanoseconds by convention)
// into log-scaled buckets and, up to a cap, verbatim — so p50/p95/p99 are
// exact for every workload the repo's experiments run.
type Histogram struct {
	count    uint64
	sum      int64
	min, max int64
	buckets  [histBuckets]uint64
	samples  []int64
	sorted   bool
	exact    bool // still within the retained-sample cap
	started  bool
}

// Observe records one value. Negative values clamp to zero (latencies under
// the sim clock cannot be negative; clamping keeps a buggy caller visible in
// the zero bucket instead of corrupting the layout).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	if !h.started {
		h.started, h.exact = true, true
		h.min = v
	}
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketOf(v)]++
	if len(h.samples) < histRetain {
		h.samples = append(h.samples, v)
		h.sorted = false
	} else {
		h.exact = false
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// bucketOf maps a non-negative value to its log-linear bucket index.
func bucketOf(v int64) int {
	if v < histSub {
		return int(v)
	}
	hi := 63 - bits.LeadingZeros64(uint64(v)) // >= 3
	minor := int(uint64(v)>>uint(hi-3)) & (histSub - 1)
	idx := (hi-2)*histSub + minor
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	return idx
}

// bucketMid returns the representative (midpoint) value of bucket idx, used
// for percentile fallback past the retained-sample cap.
func bucketMid(idx int) int64 {
	if idx < histSub {
		return int64(idx)
	}
	hi := idx/histSub + 2
	minor := int64(idx % histSub)
	low := int64(1)<<uint(hi) | minor<<uint(hi-3)
	width := int64(1) << uint(hi-3)
	return low + width/2
}

// Percentile returns the p-th percentile (0 < p <= 100) by nearest rank:
// exact while the sample store holds every observation, bucket-midpoint
// approximate afterwards. Returns 0 on an empty histogram.
func (h *Histogram) Percentile(p float64) int64 {
	if h == nil || h.count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p / 100 * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	if h.exact {
		if !h.sorted {
			sort.Slice(h.samples, func(i, j int) bool { return h.samples[i] < h.samples[j] })
			h.sorted = true
		}
		return h.samples[rank-1]
	}
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if cum >= rank {
			return bucketMid(i)
		}
	}
	return h.max
}

// HistSnapshot is the rendered form of one histogram.
type HistSnapshot struct {
	Count uint64  `json:"count"`
	Sum   int64   `json:"sum"`
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P95   int64   `json:"p95"`
	P99   int64   `json:"p99"`
	// Exact reports whether the percentiles come from retained samples
	// (true) or log-bucket midpoints (false, past the retention cap).
	Exact bool `json:"exact"`
}

func (h *Histogram) snapshot() HistSnapshot {
	s := HistSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max, Exact: h.exact}
	if h.count > 0 {
		s.Mean = float64(h.sum) / float64(h.count)
		s.P50 = h.Percentile(50)
		s.P95 = h.Percentile(95)
		s.P99 = h.Percentile(99)
	}
	return s
}

// ---- Page heat map ----

// PageHeat accumulates coherence pressure on one guest page.
type PageHeat struct {
	Faults      uint64
	WriteFaults uint64
	Invals      uint64
	nodes       uint64 // bitmask of faulting nodes (cluster <= 64 nodes)
}

// HeatMap tracks per-page fault and invalidation counts; its top-N rows are
// the false-sharing candidate list the splitter's threshold heuristics act
// on (§5.1) — the profile shows the pressure before SplitHome fires.
type HeatMap struct {
	pages map[uint64]*PageHeat
}

// Fault records a page request from node (write upgrades included).
func (h *HeatMap) Fault(page uint64, node int, write bool) {
	if h == nil {
		return
	}
	ph := h.pages[page]
	if ph == nil {
		ph = &PageHeat{}
		h.pages[page] = ph
	}
	ph.Faults++
	if write {
		ph.WriteFaults++
	}
	if node >= 0 && node < 64 {
		ph.nodes |= 1 << uint(node)
	}
}

// Invalidate records an invalidation sent for page.
func (h *HeatMap) Invalidate(page uint64) {
	if h == nil {
		return
	}
	ph := h.pages[page]
	if ph == nil {
		ph = &PageHeat{}
		h.pages[page] = ph
	}
	ph.Invals++
}

// PageHeatRow is one rendered heat-map entry.
type PageHeatRow struct {
	Page        uint64 `json:"page"`
	Faults      uint64 `json:"faults"`
	WriteFaults uint64 `json:"write_faults"`
	Invals      uint64 `json:"invals"`
	Nodes       int    `json:"nodes"`
	// FalseSharing marks pages multiple nodes write-fault and that keep
	// bouncing (invalidation pressure): the candidates page splitting
	// should fire on.
	FalseSharing bool `json:"false_sharing_candidate"`
}

// falseSharingInvals is the invalidation count past which a multi-node page
// is flagged as a false-sharing candidate.
const falseSharingInvals = 4

// TopN returns the n hottest pages ordered by total pressure (faults +
// invalidations) descending, page number ascending on ties — a total order,
// so snapshots are deterministic.
func (h *HeatMap) TopN(n int) []PageHeatRow {
	if h == nil || len(h.pages) == 0 {
		return nil
	}
	rows := make([]PageHeatRow, 0, len(h.pages))
	for page, ph := range h.pages {
		rows = append(rows, PageHeatRow{
			Page:        page,
			Faults:      ph.Faults,
			WriteFaults: ph.WriteFaults,
			Invals:      ph.Invals,
			Nodes:       bits.OnesCount64(ph.nodes),
			FalseSharing: bits.OnesCount64(ph.nodes) >= 2 &&
				ph.Invals >= falseSharingInvals && ph.WriteFaults > 0,
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		si, sj := rows[i].Faults+rows[i].Invals, rows[j].Faults+rows[j].Invals
		if si != sj {
			return si > sj
		}
		return rows[i].Page < rows[j].Page
	})
	if n > 0 && len(rows) > n {
		rows = rows[:n]
	}
	return rows
}

// ---- Lock contention profile ----

type lockWord struct {
	waits      uint64
	wakes      uint64
	holds      uint64
	waitNs     int64
	maxWaitNs  int64
	holdNs     int64
	maxWaiters int

	owner      int64
	acquiredAt int64
	held       bool
}

// LockProfile accumulates per-futex-word contention: wait time (park to
// wake), waiter queue depth, and an under-contention hold-time estimate —
// the span from a waiter being woken (acquiring the word) to that same
// thread's next FUTEX_WAKE on the word (releasing it). Uncontended
// acquisitions never reach the futex, so hold times cover contended
// critical sections only; that is exactly the population that matters for
// the paper's lock-wait attribution (§6, Table 1).
type LockProfile struct {
	words map[uint64]*lockWord
}

func (p *LockProfile) word(addr uint64) *lockWord {
	w := p.words[addr]
	if w == nil {
		w = &lockWord{}
		p.words[addr] = w
	}
	return w
}

// Wait records a thread parking on addr with the given queue depth
// (including itself).
func (p *LockProfile) Wait(addr uint64, waiters int) {
	if p == nil {
		return
	}
	w := p.word(addr)
	w.waits++
	if waiters > w.maxWaiters {
		w.maxWaiters = waiters
	}
}

// Woke records a parked thread waking after waitNs; the thread now holds
// the contended word.
func (p *LockProfile) Woke(addr uint64, tid int64, waitNs, now int64) {
	if p == nil {
		return
	}
	w := p.word(addr)
	w.wakes++
	w.waitNs += waitNs
	if waitNs > w.maxWaitNs {
		w.maxWaitNs = waitNs
	}
	w.owner, w.acquiredAt, w.held = tid, now, true
}

// Release records tid issuing FUTEX_WAKE on addr: if tid was the last woken
// holder, the span since its wake is charged as hold time.
func (p *LockProfile) Release(addr uint64, tid int64, now int64) {
	if p == nil {
		return
	}
	w := p.word(addr)
	if w.held && w.owner == tid {
		w.holds++
		w.holdNs += now - w.acquiredAt
		w.held = false
	}
}

// LockRow is one rendered contention entry.
type LockRow struct {
	Addr       uint64 `json:"addr"`
	Waits      uint64 `json:"waits"`
	Wakes      uint64 `json:"wakes"`
	WaitNs     int64  `json:"wait_ns"`
	MaxWaitNs  int64  `json:"max_wait_ns"`
	Holds      uint64 `json:"holds"`
	HoldNs     int64  `json:"hold_ns"`
	MaxWaiters int    `json:"max_waiters"`
}

// Rows returns every contended word ordered by total wait time descending,
// address ascending on ties.
func (p *LockProfile) Rows() []LockRow {
	if p == nil || len(p.words) == 0 {
		return nil
	}
	rows := make([]LockRow, 0, len(p.words))
	for addr, w := range p.words {
		rows = append(rows, LockRow{
			Addr: addr, Waits: w.waits, Wakes: w.wakes,
			WaitNs: w.waitNs, MaxWaitNs: w.maxWaitNs,
			Holds: w.holds, HoldNs: w.holdNs, MaxWaiters: w.maxWaiters,
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].WaitNs != rows[j].WaitNs {
			return rows[i].WaitNs > rows[j].WaitNs
		}
		return rows[i].Addr < rows[j].Addr
	})
	return rows
}

// ---- Snapshot ----

// ThreadRow is a thread's migration transit, the one per-thread time a
// Result does not hold (its exec, stall and syscall times are Result rows).
type ThreadRow struct {
	TID       int64 `json:"tid"`
	MigrateNs int64 `json:"migrate_ns"`
}

// Row is one number a run counted. Unit is "ns", "bytes" or empty for a
// plain count; a time row names the Clock it was read on ("virtual",
// "wall" or "model").
type Row struct {
	Key   string `json:"key"`
	Value int64  `json:"value"`
	Unit  string `json:"unit,omitempty"`
	Clock string `json:"clock,omitempty"`
}

// String renders the row as one line of text: key, value, unit, (clock).
func (r Row) String() string {
	s := strings.TrimSpace(fmt.Sprintf("%-40s %d %s", r.Key, r.Value, r.Unit))
	if r.Clock != "" {
		s += " (" + r.Clock + ")"
	}
	return s
}

// Snapshot is the rendered state of a registry plus the run's Result rows,
// stable under JSON encoding (maps marshal in sorted key order; slices are
// emitted pre-sorted).
type Snapshot struct {
	Histograms map[string]HistSnapshot `json:"histograms"`
	PageHeat   []PageHeatRow           `json:"page_heat"`
	Locks      []LockRow               `json:"locks"`
	Threads    []ThreadRow             `json:"threads,omitempty"`
	Result     []Row                   `json:"result,omitempty"`
}

// heatTopN bounds the heat-map rows a snapshot carries.
const heatTopN = 32

// Snapshot renders the registry, the heatTopN hottest pages included.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	s := &Snapshot{
		Histograms: map[string]HistSnapshot{},
		PageHeat:   r.pages.TopN(heatTopN),
		Locks:      r.locks.Rows(),
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// Validate checks a snapshot's internal consistency plus the presence of
// any required histogram names — the machine-checkable half of the schema
// the profile-smoke CI job enforces.
func (s *Snapshot) Validate(requiredHists ...string) error {
	if s == nil {
		return fmt.Errorf("metrics: nil snapshot")
	}
	if s.Histograms == nil {
		return fmt.Errorf("metrics: snapshot missing a top-level section")
	}
	for _, name := range requiredHists {
		if _, ok := s.Histograms[name]; !ok {
			return fmt.Errorf("metrics: required histogram %q missing", name)
		}
	}
	for name, h := range s.Histograms {
		if h.Count == 0 {
			if h.Sum != 0 || h.P50 != 0 || h.P99 != 0 {
				return fmt.Errorf("metrics: empty histogram %q has nonzero stats", name)
			}
			continue
		}
		if h.Min > h.Max {
			return fmt.Errorf("metrics: histogram %q min %d > max %d", name, h.Min, h.Max)
		}
		if h.P50 > h.P95 || h.P95 > h.P99 {
			return fmt.Errorf("metrics: histogram %q percentiles not monotonic (%d/%d/%d)",
				name, h.P50, h.P95, h.P99)
		}
		if h.P99 > h.Max || h.P50 < h.Min {
			return fmt.Errorf("metrics: histogram %q percentiles outside [min,max]", name)
		}
	}
	for i := 1; i < len(s.PageHeat); i++ {
		a, b := s.PageHeat[i-1], s.PageHeat[i]
		if a.Faults+a.Invals < b.Faults+b.Invals {
			return fmt.Errorf("metrics: page_heat not sorted by pressure at row %d", i)
		}
	}
	return nil
}
