package dsm

// Forwarder implements data forwarding (§5.2): the master keeps a
// page-request history per requesting thread (like the Linux VFS read-ahead
// it is modelled on [15], which tracks streams per open file) and, once a
// stream turns sequential, pushes the pages ahead of it to the thread's
// node in Shared state, hiding the fault round trip.
type Forwarder struct {
	// Trigger is the number of consecutive sequential requests that arm
	// read-ahead (the paper's micro-benchmark uses 4).
	Trigger int
	// Window is how many pages ahead are pushed once armed; it doubles
	// while a stream holds, up to windowCap times Window.
	Window int

	// Hits counts demand faults that continued a stream through its pushed
	// window; Wasted counts pushed pages stranded by a stream reset
	// (reported in Stats.ForwardHits/ForwardWasted).
	Hits   uint64
	Wasted uint64

	streams map[int64]*stream
}

// windowCap bounds window growth at windowCap*Window, the
// Linux-readahead-style doubling limit.
const windowCap = 4

type stream struct {
	lastPage  uint64
	runLen    int
	pushedTo  uint64 // highest page already pushed for this stream
	curWindow int    // current readahead size (doubles up to the cap)

	// scratch backs the returned prediction slice: Record runs on the
	// remote-fault hot path, and reallocating the window every call costs
	// an allocation per armed fault (pinned at zero by a benchmark test).
	scratch []uint64
}

// NewForwarder returns a forwarder with the given trigger and window
// (zero values select 4 and 8).
func NewForwarder(trigger, window int) *Forwarder {
	if trigger <= 0 {
		trigger = 4
	}
	if window <= 0 {
		window = 8
	}
	return &Forwarder{Trigger: trigger, Window: window, streams: map[int64]*stream{}}
}

// Record notes a demand read by node for page and returns the pages to push
// ahead of the stream (possibly none). A demand fault just past the pushed
// window counts as stream continuation — pushed pages never fault, so the
// next fault lands at pushedTo+1 (like the lookahead marker in the Linux
// readahead framework [15]). The returned slice is valid until the next
// Record call for the same tid (the caller consumes it immediately).
func (f *Forwarder) Record(tid int64, page uint64) []uint64 {
	st := f.streams[tid]
	if st == nil {
		st = &stream{}
		f.streams[tid] = st
	}
	switch {
	case page == st.lastPage+1,
		// A fault inside or just past the pushed window continues the
		// stream: pushed pages don't fault, and a walker outrunning the
		// wire faults on a page whose push is still in flight.
		st.pushedTo > 0 && page > st.lastPage && page <= st.pushedTo+1:
		st.runLen++
		if st.pushedTo > 0 {
			f.Hits++
		}
	case page == st.lastPage:
		// Re-fault on the same page (e.g. the page was invalidated under the
		// stream): the stream neither advances nor resets, and nothing new is
		// pushed — without this the armed block below would double the window
		// and push ever further ahead on zero progress.
		return nil
	default:
		if st.pushedTo > st.lastPage {
			// The stream broke with pushes in flight past its last fault:
			// those pages were speculated for nothing.
			f.Wasted += st.pushedTo - st.lastPage
		}
		st.runLen = 1
		st.pushedTo = 0
		st.curWindow = 0
	}
	st.lastPage = page
	if st.runLen < f.Trigger {
		return nil
	}
	// Armed: push the current window ahead of the demand page, skipping
	// what is already in flight, then grow the window (the doubling of the
	// Linux readahead framework) so a steady stream faults ever more rarely.
	if st.curWindow == 0 {
		st.curWindow = f.Window
	}
	start := page + 1
	if st.pushedTo >= start {
		start = st.pushedTo + 1
	}
	end := page + uint64(st.curWindow)
	if end > st.pushedTo {
		st.pushedTo = end
	}
	if lim := windowCap * f.Window; st.curWindow < lim {
		st.curWindow *= 2
		if st.curWindow > lim {
			st.curWindow = lim
		}
	}
	if start > end {
		return nil
	}
	out := st.scratch[:0]
	for p := start; p <= end; p++ {
		out = append(out, p)
	}
	st.scratch = out
	return out
}
