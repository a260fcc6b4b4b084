package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans are
// recorded by the benchmark's own code around each call (in-program spans
// are a later change), stay in memory, and are written out when the run
// ends.
type span struct {
	Name   string
	Input  string // input or job template the call served
	Start  time.Duration
	End    time.Duration
	Parent int // index of the causing span, -1 for a root
	Iter   int // iteration id shared by every span of one iteration
	Track  int // spans of one track nest; concurrent clients get their own
}

// tracer collects spans. A nil *tracer records nothing, so the untraced
// (end-to-end) iterations pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 when tracing is off).
func (t *tracer) begin(name, input string, parent, iter, track int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Input: input, Start: now, End: -1, Parent: parent, Iter: iter, Track: track})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose endpoints were measured elsewhere (the server's
// own queued/started/finished timestamps).
func (t *tracer) add(name, input string, start, end time.Time, parent, iter, track int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Input: input, Start: start.Sub(t.t0), End: end.Sub(t.t0), Parent: parent, Iter: iter, Track: track})
}

// selfTimes returns, per span, its duration minus the part its child spans
// cover.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// selfMsByName sums self time per span name, in milliseconds.
func (t *tracer) selfMsByName() map[string]float64 {
	out := map[string]float64{}
	if t == nil {
		return out
	}
	for i, d := range t.selfTimes() {
		out[t.spans[i].Name] += float64(d) / 1e6
	}
	return out
}

// meanMsByInput returns, per input (or job template) and span name, the
// mean self time of one span in milliseconds.
func (t *tracer) meanMsByInput() map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	if t == nil {
		return out
	}
	count := map[[2]string]int{}
	for i, d := range t.selfTimes() {
		s := t.spans[i]
		if s.Input == "" {
			continue
		}
		if out[s.Input] == nil {
			out[s.Input] = map[string]float64{}
		}
		out[s.Input][s.Name] += float64(d) / 1e6
		count[[2]string{s.Input, s.Name}]++
	}
	for in, m := range out {
		for name := range m {
			m[name] /= float64(count[[2]string{in, name}])
		}
	}
	return out
}

// chromeEvent is one Chrome trace_event entry, the subset
// cmd/dqemu-trace-check validates.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"` // microseconds of host time
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// writeChrome writes the spans as a Chrome trace_event JSON array of B/E
// pairs, one tid per span track; iteration and parent ids ride in args.
func (t *tracer) writeChrome(w io.Writer) error {
	order := make([]int, 0, len(t.spans))
	for i, s := range t.spans {
		if s.End >= s.Start {
			order = append(order, i)
		}
	}
	// Within a track: by start, the longer (enclosing) span first.
	sort.SliceStable(order, func(a, b int) bool {
		x, y := t.spans[order[a]], t.spans[order[b]]
		if x.Track != y.Track {
			return x.Track < y.Track
		}
		if x.Start != y.Start {
			return x.Start < y.Start
		}
		return x.End > y.End
	})
	var evs []chromeEvent
	var open []int // stack of spans begun and not yet ended, all of one track
	closeEndedBy := func(track int, at time.Duration) {
		for len(open) > 0 {
			top := t.spans[open[len(open)-1]]
			if top.Track == track && top.End > at {
				return
			}
			evs = append(evs, chromeEvent{Name: top.Name, Cat: "bench", Ph: "E",
				TS: float64(top.End) / 1e3, PID: 1, TID: top.Track})
			open = open[:len(open)-1]
		}
	}
	for _, i := range order {
		s := t.spans[i]
		closeEndedBy(s.Track, s.Start)
		args := map[string]string{"iter": fmt.Sprint(s.Iter), "parent": fmt.Sprint(s.Parent)}
		if s.Input != "" {
			args["input"] = s.Input
		}
		evs = append(evs, chromeEvent{Name: s.Name, Cat: "bench", Ph: "B",
			TS: float64(s.Start) / 1e3, PID: 1, TID: s.Track, Args: args})
		open = append(open, i)
	}
	closeEndedBy(-1, 0)
	enc := json.NewEncoder(w)
	return enc.Encode(evs)
}
