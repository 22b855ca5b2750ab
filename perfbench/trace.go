package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// wrappers around the layer's public functions.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Op is the period index or request id the span belongs to.
	Op    int64         `json:"op"`
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per wrapper call. Span ids
// are dense (id = index+1). Safe for concurrent use; cur is the innermost
// open span of the host loop, which is single-threaded, and is what
// host-side wrappers parent their spans to.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	closed []bool
	cur    int64
	op     int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its id.
func (t *tracer) begin(name string, parent, op int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: int64(len(t.spans) + 1), Parent: parent, Name: name, Op: op, Start: now})
	t.closed = append(t.closed, false)
	return int64(len(t.spans))
}

// end closes span id.
func (t *tracer) end(id int64) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.closed[id-1] = true
}

// setOp sets the period index or request id later host-loop spans carry.
func (t *tracer) setOp(op int64) {
	if t != nil {
		t.op = op
	}
}

// enter opens a span nested in the host loop's current span and makes it
// current; leave closes it and makes its parent current again.
func (t *tracer) enter(name string) int64 {
	if t == nil {
		return 0
	}
	id := t.begin(name, t.cur, t.op)
	t.cur = id
	return id
}

func (t *tracer) leave(id int64) {
	if t == nil {
		return
	}
	t.end(id)
	t.mu.Lock()
	t.cur = t.spans[id-1].Parent
	t.mu.Unlock()
}

// snapshot returns the closed spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for i, s := range t.spans {
		if t.closed[i] {
			out = append(out, s)
		}
	}
	return out
}

// layerTime is one span name's totals.
type layerTime struct {
	Count int
	Total time.Duration
	Self  time.Duration
}

func (lt layerTime) meanMS() float64 {
	if lt.Count == 0 {
		return 0
	}
	return ms(lt.Total) / float64(lt.Count)
}

func (lt layerTime) meanSelfMS() float64 {
	if lt.Count == 0 {
		return 0
	}
	return ms(lt.Self) / float64(lt.Count)
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval that its children cover; overlapping
// children are counted once.
func selfTimes(spans []span) map[string]layerTime {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]layerTime)
	for _, s := range spans {
		lt := out[s.Name]
		lt.Count++
		lt.Total += s.dur()
		lt.Self += s.dur() - covered(s, children[s.ID])
		out[s.Name] = lt
	}
	return out
}

// covered is the length of the union of kids' intervals clipped to s.
func covered(s span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curA, curB time.Duration
	for i, v := range iv {
		switch {
		case i == 0:
			curA, curB = v[0], v[1]
		case v[0] > curB:
			total += curB - curA
			curA, curB = v[0], v[1]
		case v[1] > curB:
			curB = v[1]
		}
	}
	if len(iv) > 0 {
		total += curB - curA
	}
	return total
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
