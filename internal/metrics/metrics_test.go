package metrics

import (
	"encoding/json"
	"math/rand"
	"sort"
	"testing"
)

func TestNilRegistryHandlesAreSafe(t *testing.T) {
	var r *Registry
	r.Histogram("z").Observe(10)
	r.Pages().Fault(1, 0, true)
	r.Pages().Invalidate(1)
	r.Locks().Wait(8, 1)
	r.Locks().Woke(8, 1, 10, 20)
	r.Locks().Release(8, 1, 30)
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot should be nil")
	}
	if r.Histogram("z").Count() != 0 {
		t.Fatal("nil handles must read zero")
	}
}

func TestNilHandlesZeroAlloc(t *testing.T) {
	var r *Registry
	var h *Histogram
	var hm *HeatMap
	var lp *LockProfile
	if n := testing.AllocsPerRun(200, func() {
		h.Observe(123456)
		hm.Fault(42, 3, true)
		hm.Invalidate(42)
		lp.Wait(0x1000, 2)
		lp.Woke(0x1000, 7, 100, 200)
		lp.Release(0x1000, 7, 300)
		r.Histogram("name").Observe(1)
	}); n != 0 {
		t.Fatalf("disabled metrics allocated %v per run, want 0", n)
	}
}

func TestHistogramExactPercentiles(t *testing.T) {
	h := &Histogram{}
	// 1..1000 in shuffled order: exact nearest-rank percentiles are known.
	rng := rand.New(rand.NewSource(1))
	vals := rng.Perm(1000)
	for _, v := range vals {
		h.Observe(int64(v + 1))
	}
	if h.Count() != 1000 || h.Sum() != 500500 {
		t.Fatalf("count/sum = %d/%d", h.Count(), h.Sum())
	}
	for _, tc := range []struct {
		p    float64
		want int64
	}{{50, 500}, {95, 950}, {99, 990}, {100, 1000}} {
		if got := h.Percentile(tc.p); got != tc.want {
			t.Errorf("p%.0f = %d, want %d", tc.p, got, tc.want)
		}
	}
	s := h.snapshot()
	if !s.Exact {
		t.Fatal("1000 samples should be exact")
	}
	if s.Min != 1 || s.Max != 1000 {
		t.Fatalf("min/max = %d/%d", s.Min, s.Max)
	}
}

func TestHistogramBucketFallback(t *testing.T) {
	h := &Histogram{}
	rng := rand.New(rand.NewSource(7))
	var all []int64
	for i := 0; i < histRetain+5000; i++ {
		v := rng.Int63n(1_000_000_000) // up to 1s in ns
		all = append(all, v)
		h.Observe(v)
	}
	s := h.snapshot()
	if s.Exact {
		t.Fatal("past the cap the snapshot must not claim exact percentiles")
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for _, tc := range []struct {
		p    float64
		name string
	}{{50, "p50"}, {95, "p95"}, {99, "p99"}} {
		truth := all[int(tc.p/100*float64(len(all)))-1]
		got := h.Percentile(tc.p)
		// log-linear with 8 sub-buckets bounds relative error to ~1/8.
		lo, hi := float64(truth)*0.85, float64(truth)*1.15
		if float64(got) < lo || float64(got) > hi {
			t.Errorf("%s = %d, truth %d (outside ±15%%)", tc.name, got, truth)
		}
	}
}

func TestHistogramBucketLayout(t *testing.T) {
	// Exact unit buckets below histSub, monotonic non-decreasing mapping,
	// and midpoints land inside their bucket.
	for v := int64(0); v < histSub; v++ {
		if bucketOf(v) != int(v) {
			t.Fatalf("bucketOf(%d) = %d", v, bucketOf(v))
		}
	}
	prev := -1
	for _, v := range []int64{8, 9, 15, 16, 31, 32, 100, 1000, 1 << 20, 1 << 40, 1<<62 - 1} {
		b := bucketOf(v)
		if b < prev {
			t.Fatalf("bucketOf not monotonic at %d", v)
		}
		prev = b
		if mid := bucketMid(b); bucketOf(mid) != b {
			t.Errorf("bucketMid(%d) = %d maps to bucket %d", b, mid, bucketOf(mid))
		}
	}
}

func TestHistogramNegativeClamps(t *testing.T) {
	h := &Histogram{}
	h.Observe(-5)
	if h.Count() != 1 || h.Percentile(50) != 0 {
		t.Fatalf("negative observation should clamp to 0")
	}
}

func TestHeatMapTopNAndFalseSharing(t *testing.T) {
	hm := &HeatMap{pages: map[uint64]*PageHeat{}}
	// page 10: hot, two writer nodes, heavy invals -> false-sharing candidate.
	for i := 0; i < 10; i++ {
		hm.Fault(10, i%2, true)
		hm.Invalidate(10)
	}
	// page 20: hot but single node.
	for i := 0; i < 8; i++ {
		hm.Fault(20, 1, true)
		hm.Invalidate(20)
	}
	// page 30: two nodes but read-only (no write faults).
	for i := 0; i < 6; i++ {
		hm.Fault(30, i%2, false)
		hm.Invalidate(30)
	}
	// page 40: cold.
	hm.Fault(40, 0, false)

	rows := hm.TopN(3)
	if len(rows) != 3 {
		t.Fatalf("TopN(3) returned %d rows", len(rows))
	}
	if rows[0].Page != 10 || rows[1].Page != 20 || rows[2].Page != 30 {
		t.Fatalf("order = %d,%d,%d", rows[0].Page, rows[1].Page, rows[2].Page)
	}
	if !rows[0].FalseSharing {
		t.Error("page 10 should be a false-sharing candidate")
	}
	if rows[1].FalseSharing {
		t.Error("single-node page 20 must not be a candidate")
	}
	if rows[2].FalseSharing {
		t.Error("read-only page 30 must not be a candidate")
	}
	if rows[0].Nodes != 2 || rows[0].Faults != 10 || rows[0].WriteFaults != 10 || rows[0].Invals != 10 {
		t.Fatalf("page 10 row = %+v", rows[0])
	}
}

func TestHeatMapDeterministicTies(t *testing.T) {
	hm := &HeatMap{pages: map[uint64]*PageHeat{}}
	for _, p := range []uint64{9, 3, 7, 1} {
		hm.Fault(p, 0, false)
	}
	rows := hm.TopN(0)
	want := []uint64{1, 3, 7, 9}
	for i, r := range rows {
		if r.Page != want[i] {
			t.Fatalf("tie order = %v", rows)
		}
	}
}

func TestLockProfile(t *testing.T) {
	lp := &LockProfile{words: map[uint64]*lockWord{}}
	// tid 1 parks at t=0 with depth 1, wakes at t=100 (holds the lock),
	// releases (FUTEX_WAKE) at t=150.
	lp.Wait(0x40, 1)
	lp.Woke(0x40, 1, 100, 100)
	lp.Release(0x40, 1, 150)
	// tid 2 parks, depth 2 observed, wakes after 300, never releases.
	lp.Wait(0x40, 2)
	lp.Woke(0x40, 2, 300, 400)
	// Release by a non-owner must not charge hold time.
	lp.Release(0x40, 9, 500)

	rows := lp.Rows()
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.Addr != 0x40 || r.Waits != 2 || r.Wakes != 2 {
		t.Fatalf("row = %+v", r)
	}
	if r.WaitNs != 400 || r.MaxWaitNs != 300 {
		t.Fatalf("wait ns = %d max %d", r.WaitNs, r.MaxWaitNs)
	}
	if r.Holds != 1 || r.HoldNs != 50 {
		t.Fatalf("holds = %d holdNs = %d, want 1/50", r.Holds, r.HoldNs)
	}
	if r.MaxWaiters != 2 {
		t.Fatalf("maxWaiters = %d", r.MaxWaiters)
	}
}

func TestLockRowsSortedByWait(t *testing.T) {
	lp := &LockProfile{words: map[uint64]*lockWord{}}
	lp.Wait(0x10, 1)
	lp.Woke(0x10, 1, 500, 500)
	lp.Wait(0x20, 1)
	lp.Woke(0x20, 1, 900, 900)
	rows := lp.Rows()
	if rows[0].Addr != 0x20 || rows[1].Addr != 0x10 {
		t.Fatalf("rows not sorted by wait time: %+v", rows)
	}
}

func TestSnapshotRoundTripAndValidate(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("fault.e2e_ns")
	for _, v := range []int64{100, 200, 300, 400, 500} {
		h.Observe(v)
	}
	r.Pages().Fault(7, 0, true)
	r.Locks().Wait(0x80, 1)
	r.Locks().Woke(0x80, 5, 40, 40)

	s := r.Snapshot()
	if err := s.Validate("fault.e2e_ns"); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if err := s.Validate("no.such.hist"); err == nil {
		t.Fatal("Validate should fail on a missing required histogram")
	}

	blob, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate("fault.e2e_ns"); err != nil {
		t.Fatalf("Validate after round trip: %v", err)
	}
	if back.Histograms["fault.e2e_ns"].P50 != 300 {
		t.Fatalf("p50 after round trip = %d", back.Histograms["fault.e2e_ns"].P50)
	}
	blob2, _ := json.Marshal(&back)
	if string(blob) != string(blob2) {
		t.Fatal("snapshot JSON not stable under re-encode")
	}
}

func TestValidateCatchesCorruptSnapshots(t *testing.T) {
	mk := func() *Snapshot {
		return &Snapshot{
			Histograms: map[string]HistSnapshot{
				"h": {Count: 2, Sum: 30, Min: 10, Max: 20, P50: 10, P95: 20, P99: 20, Exact: true},
			},
		}
	}
	if err := mk().Validate(); err != nil {
		t.Fatalf("good snapshot rejected: %v", err)
	}
	bad := mk()
	h := bad.Histograms["h"]
	h.P50, h.P95 = 25, 10
	bad.Histograms["h"] = h
	if bad.Validate() == nil {
		t.Fatal("non-monotonic percentiles not caught")
	}
	bad2 := mk()
	bad2.PageHeat = []PageHeatRow{{Page: 1, Faults: 1}, {Page: 2, Faults: 5}}
	if bad2.Validate() == nil {
		t.Fatal("unsorted page heat not caught")
	}
	var nilSnap *Snapshot
	if nilSnap.Validate() == nil {
		t.Fatal("nil snapshot not caught")
	}
}
