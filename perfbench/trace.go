package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// recorder keeps the traced run's spans in memory; write exports them as
// Chrome Trace Event JSON when the run ends. Spans are recorded by the
// benchmark around its own calls into each layer's public functions, so
// nothing inside the program is instrumented. A nil *recorder records
// nothing, which is how the untraced run stays free of tracing work.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	lanes []string // lane names, indexed by tid

	freeLanes []int32
}

// span is one complete event. Its layer is the event category; the parent
// is the enclosing span on the same lane, or -1.
type span struct {
	name, layer string
	tid         int32
	start, end  int64 // ns since epoch
	parent      int
	arg         string
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// lane returns a new track named name.
func (r *recorder) lane(name string) int32 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lanes = append(r.lanes, name)
	return int32(len(r.lanes) - 1)
}

// takeLane hands out a free request lane, creating one when all are busy,
// so concurrent requests never share a track while the number of tracks
// stays at the peak concurrency.
func (r *recorder) takeLane() int32 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	if n := len(r.freeLanes); n > 0 {
		l := r.freeLanes[n-1]
		r.freeLanes = r.freeLanes[:n-1]
		r.mu.Unlock()
		return l
	}
	r.mu.Unlock()
	return r.lane("request lane")
}

func (r *recorder) giveLane(l int32) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.freeLanes = append(r.freeLanes, l)
	r.mu.Unlock()
}

// add records a span over [t0, t1] and returns its id for use as a parent.
func (r *recorder) add(name, layer string, tid int32, t0, t1 time.Time, parent int, arg string) int {
	if r == nil {
		return -1
	}
	s := span{name: name, layer: layer, tid: tid, start: t0.Sub(r.epoch).Nanoseconds(),
		end: t1.Sub(r.epoch).Nanoseconds(), parent: parent, arg: arg}
	if s.end < s.start {
		s.end = s.start
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

// phases records children of span parent laid end to end from its start,
// in the order given: the program reports how long each phase of a call
// took, not when it began, so a phase's placement inside the call is
// nominal while its duration is the program's own figure. Phases are
// clipped to the parent so the trace stays properly nested.
func (r *recorder) phases(parent int, ps ...phaseDur) {
	if r == nil || parent < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.spans[parent]
	t := p.start
	for _, ph := range ps {
		if ph.d <= 0 {
			continue
		}
		end := t + ph.d.Nanoseconds()
		if end > p.end {
			end = p.end
		}
		r.spans = append(r.spans, span{name: ph.name, layer: ph.layer, tid: p.tid, start: t, end: end, parent: parent})
		t = end
	}
}

type phaseDur struct {
	name, layer string
	d           time.Duration
}

// selfTimes returns each layer's self time in ns: the duration of its
// spans minus the part covered by their child spans. Spans on lanes named
// skip are left out.
func (r *recorder) selfTimes(skip string) map[string]int64 {
	out := map[string]int64{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make([][]int, len(r.spans))
	for i, s := range r.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	for i, s := range r.spans {
		if r.lanes[s.tid] == skip {
			continue
		}
		out[s.layer] += (s.end - s.start) - covered(r.spans, children[i])
	}
	return out
}

// covered returns the length of the union of the given spans' intervals.
func covered(spans []span, ids []int) int64 {
	if len(ids) == 0 {
		return 0
	}
	iv := make([][2]int64, len(ids))
	for i, id := range ids {
		iv[i] = [2]int64{spans[id].start, spans[id].end}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = x
			continue
		}
		if x[1] > cur[1] {
			cur[1] = x[1]
		}
	}
	return total + cur[1] - cur[0]
}

type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Pid  int               `json:"pid"`
	Tid  int32             `json:"tid"`
	TS   float64           `json:"ts"`
	Dur  *float64          `json:"dur,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

// micros converts ns to µs on a grid of 2⁻¹⁰ µs. Every grid point and
// every sum of two is exact in a float64 for the run lengths used here,
// so a span that ends where its sibling starts reads so in the file, and
// a child never appears to outlast its parent through rounding.
func micros(ns int64) float64 {
	return math.Round(float64(ns)*1.024) / 1024
}

// write exports the spans to path as Chrome Trace Event JSON and checks
// the file with the repository's own trace validator.
func (r *recorder) write(path string) (obs.TraceSummary, error) {
	r.mu.Lock()
	events := make([]chromeEvent, 0, len(r.spans)+len(r.lanes))
	for tid, name := range r.lanes {
		events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: int32(tid),
			Args: map[string]string{"name": name + " " + strconv.Itoa(tid)}})
	}
	order := make([]int, len(r.spans))
	for i := range order {
		order[i] = i
	}
	// Per track, by start; an enclosing span precedes the spans it holds.
	sort.SliceStable(order, func(a, b int) bool {
		x, y := r.spans[order[a]], r.spans[order[b]]
		if x.tid != y.tid {
			return x.tid < y.tid
		}
		if x.start != y.start {
			return x.start < y.start
		}
		return x.end > y.end
	})
	for _, i := range order {
		s := r.spans[i]
		dur := micros(s.end) - micros(s.start)
		ev := chromeEvent{Name: s.name, Cat: s.layer, Ph: "X", Pid: 1, Tid: s.tid,
			TS: micros(s.start), Dur: &dur}
		if s.arg != "" {
			ev.Args = map[string]string{"detail": s.arg}
		}
		events = append(events, ev)
	}
	r.mu.Unlock()

	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return obs.TraceSummary{}, err
	}
	f, err := os.Create(path)
	if err != nil {
		return obs.TraceSummary{}, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return obs.TraceSummary{}, fmt.Errorf("encode trace: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return obs.TraceSummary{}, fmt.Errorf("write trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return obs.TraceSummary{}, fmt.Errorf("close trace: %w", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return obs.TraceSummary{}, err
	}
	return obs.ValidateChromeTrace(data)
}
