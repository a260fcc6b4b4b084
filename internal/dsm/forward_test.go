package dsm

import (
	"reflect"
	"testing"
)

// seqPages is a helper building the expected [from, to] push list.
func seqPages(from, to uint64) []uint64 {
	var out []uint64
	for p := from; p <= to; p++ {
		out = append(out, p)
	}
	return out
}

// TestForwarderWindowDoubling walks one stream through the full lifecycle:
// arm at Trigger, first window of Window pages, doubling on continuation,
// and the 4x cap.
func TestForwarderWindowDoubling(t *testing.T) {
	f := NewForwarder(4, 8)
	for _, p := range []uint64{10, 11, 12} {
		if got := f.Record(1, p); got != nil {
			t.Fatalf("page %d: pushed %v before trigger", p, got)
		}
	}
	// 4th sequential fault arms: Window pages ahead of the demand page.
	if got := f.Record(1, 13); !reflect.DeepEqual(got, seqPages(14, 21)) {
		t.Fatalf("first window: %v", got)
	}
	// Pushed pages never fault, so the next fault lands exactly at
	// pushedTo+1; that continues the stream and the window has doubled.
	if got := f.Record(1, 22); !reflect.DeepEqual(got, seqPages(23, 38)) {
		t.Fatalf("doubled window: %v", got)
	}
	// Third round: doubled again to the 4x cap (32 pages).
	if got := f.Record(1, 39); !reflect.DeepEqual(got, seqPages(40, 71)) {
		t.Fatalf("capped window: %v", got)
	}
	// The cap holds: a fourth round still pushes 4x Window, not 8x.
	if got := f.Record(1, 72); !reflect.DeepEqual(got, seqPages(73, 104)) {
		t.Fatalf("window after cap: %v", got)
	}
}

// TestForwarderContinuationInsideWindow covers a walker outrunning the wire:
// a demand fault on a page whose push is still in flight (inside the pushed
// window) continues the stream and only new pages are pushed — the in-flight
// ones are never re-sent.
func TestForwarderContinuationInsideWindow(t *testing.T) {
	f := NewForwarder(4, 8)
	for _, p := range []uint64{10, 11, 12} {
		f.Record(1, p)
	}
	if got := f.Record(1, 13); !reflect.DeepEqual(got, seqPages(14, 21)) {
		t.Fatalf("first window: %v", got)
	}
	// Fault at 15: inside [14,21], push still in flight. start must be
	// pushedTo+1 = 22, not 16.
	if got := f.Record(1, 15); !reflect.DeepEqual(got, seqPages(22, 31)) {
		t.Fatalf("inside-window continuation: %v", got)
	}
}

// TestForwarderRepeatFault: re-faulting the same page (e.g. it was
// invalidated under the stream) must not re-push the in-flight window, grow
// it, or reset the stream.
func TestForwarderRepeatFault(t *testing.T) {
	f := NewForwarder(2, 4)
	f.Record(1, 10)
	if got := f.Record(1, 11); !reflect.DeepEqual(got, seqPages(12, 15)) {
		t.Fatalf("arm: %v", got)
	}
	if got := f.Record(1, 11); got != nil {
		t.Fatalf("repeat fault re-pushed %v", got)
	}
	// The stream is still armed and continues where it left off.
	if got := f.Record(1, 16); !reflect.DeepEqual(got, seqPages(17, 24)) {
		t.Fatalf("continuation after repeat: %v", got)
	}
}

// TestForwarderStreamReset: a random jump resets run length, window size and
// the pushed watermark; the stream must fully re-arm and start from the base
// window again.
func TestForwarderStreamReset(t *testing.T) {
	f := NewForwarder(3, 4)
	for _, p := range []uint64{10, 11} {
		f.Record(1, p)
	}
	if got := f.Record(1, 12); !reflect.DeepEqual(got, seqPages(13, 16)) {
		t.Fatalf("arm: %v", got)
	}
	if got := f.Record(1, 17); !reflect.DeepEqual(got, seqPages(18, 25)) {
		t.Fatalf("doubled: %v", got)
	}
	// Jump far away: everything resets, and the pages pushed past 17 were
	// speculated for nothing.
	if got := f.Record(1, 1000); got != nil {
		t.Fatalf("jump pushed %v", got)
	}
	if f.Hits != 1 || f.Wasted != 8 {
		t.Fatalf("Hits, Wasted = %d, %d, want 1 (page 17), 8 (pages 18-25)", f.Hits, f.Wasted)
	}
	if got := f.Record(1, 1001); got != nil {
		t.Fatalf("second page after reset pushed %v (window not reset?)", got)
	}
	// Re-arm takes the full trigger and restarts at the base window.
	if got := f.Record(1, 1002); !reflect.DeepEqual(got, seqPages(1003, 1006)) {
		t.Fatalf("re-arm after reset: %v", got)
	}
}

// TestForwarderBackwardFaultResets: a fault below the stream (but outside
// the pushed window) is not a continuation.
func TestForwarderBackwardFaultResets(t *testing.T) {
	f := NewForwarder(2, 4)
	f.Record(1, 10)
	if got := f.Record(1, 11); got == nil {
		t.Fatal("stream did not arm")
	}
	if got := f.Record(1, 5); got != nil {
		t.Fatalf("backward fault pushed %v", got)
	}
	if got := f.Record(1, 6); got == nil {
		t.Fatal("new backward stream did not re-arm at trigger")
	}
}

// TestForwarderRecordZeroAlloc pins the hot fault path at zero allocations
// per Record call once a stream's scratch buffer has warmed up: the
// prediction slice is reused, not reallocated.
func TestForwarderRecordZeroAlloc(t *testing.T) {
	f := NewForwarder(4, 8)
	page := uint64(100)
	// Warm up: arm the stream and let the window double to its cap so the
	// scratch buffer reaches its steady-state capacity.
	for i := 0; i < 16; i++ {
		f.Record(7, page)
		page++
	}
	allocs := testing.AllocsPerRun(200, func() {
		f.Record(7, page)
		page++
	})
	if allocs != 0 {
		t.Errorf("%v allocs per armed Record, want 0", allocs)
	}
}

// TestForwarderWindowCap: a stream's window doubles up to windowCap × Window
// and holds there for as long as the stream runs.
func TestForwarderWindowCap(t *testing.T) {
	f := NewForwarder(2, 3)
	page := uint64(100)
	for i := 0; i < 30; i++ {
		f.Record(7, page)
		page++
		if w := f.streams[7].curWindow; w > windowCap*f.Window {
			t.Fatalf("record %d: curWindow = %d, past the cap %d", i, w, windowCap*f.Window)
		}
	}
	if w := f.streams[7].curWindow; w != windowCap*f.Window {
		t.Fatalf("curWindow = %d after a long stream, want the cap %d", w, windowCap*f.Window)
	}
}
