package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one op share Op;
// Parent is the span that made the call (0 for an op's root). Shadow
// marks calls made only to measure a layer, such as lexing a source
// separately from parsing it.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Shadow bool   `json:"shadow,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced ops run the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(parent int64, op int, name string, shadow bool) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, Shadow: shadow})
	return id
}

func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// call runs fn inside a span and returns how long it took.
func (t *tracer) call(parent int64, op int, name string, shadow bool, fn func()) time.Duration {
	id := t.begin(parent, op, name, shadow)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id)
	return d
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Count   int     `json:"count"`
	Ops     int     `json:"ops"`
	TotalMs float64 `json:"total_ms_per_op"`
	SelfMs  float64 `json:"self_ms_per_op"`
	Share   float64 `json:"share"`
	Shadow  bool    `json:"shadow"`
}

// summary gives each span name, prefixed by the name of its root span,
// its self time (duration minus the part its children cover) per op,
// and its share: self time over the summed duration of the real root
// spans. A shadow span's share estimates the part of the op its layer
// takes, since it re-does that layer's work on the op's inputs.
func (t *tracer) summary() map[string]spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	var rootTotal float64
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		} else if !s.Shadow {
			rootTotal += float64(s.End - s.Start)
		}
	}
	type acc struct {
		count       int
		ops         map[int]bool
		total, self float64
		shadow      bool
	}
	accs := map[string]*acc{}
	for _, s := range t.spans {
		key := s.Name
		if s.Parent != 0 {
			root := t.spans[s.Parent-1]
			for root.Parent != 0 {
				root = t.spans[root.Parent-1]
			}
			key = root.Name + " > " + s.Name
		}
		a := accs[key]
		if a == nil {
			a = &acc{ops: map[int]bool{}, shadow: s.Shadow}
			accs[key] = a
		}
		a.count++
		a.ops[s.Op] = true
		d := float64(s.End - s.Start)
		a.total += d
		a.self += d - covered(s, children[s.ID])
	}
	out := map[string]spanStat{}
	for name, a := range accs {
		n := float64(len(a.ops))
		out[name] = spanStat{
			Count:   a.count,
			Ops:     len(a.ops),
			TotalMs: a.total / n / 1e6,
			SelfMs:  a.self / n / 1e6,
			Share:   ratio(a.self, rootTotal),
			Shadow:  a.shadow,
		}
	}
	return out
}

// covered is how much of s the union of its children's intervals
// covers.
func covered(s span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, s.Start), min(k.End, s.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			sum += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	sum += curHi - curLo
	return float64(sum)
}

// write stores the spans and their summary as JSON.
func (t *tracer) write(path string, meta map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	sum := t.summary()
	t.mu.Lock()
	doc := map[string]any{"run": meta, "summary": sum, "spans": t.spans}
	b, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
