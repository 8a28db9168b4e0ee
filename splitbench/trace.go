package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call
// into a layer of the program. Spans of one op share Op; Parent is the
// span that caused this one (0 for an op's root span).
type span struct {
	ID     int
	Parent int
	Op     int
	Name   string
	Start  time.Duration // since the tracer's epoch
	End    time.Duration
}

func (s span) seconds() float64 { return (s.End - s.Start).Seconds() }

// tracer keeps spans in memory; report writes them out when the run
// ends. A nil *tracer records nothing, so untraced runs pay one nil
// check per span site.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newOp returns a fresh op identifier.
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// open starts a span now and returns its ID; close ends it.
func (t *tracer) open(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return len(t.spans)
}

func (t *tracer) close(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// add records a span from timestamps taken elsewhere (the daemon
// client's event arrival times).
func (t *tracer) add(name string, parent, op int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
	return len(t.spans)
}

// closed returns a copy of the finished spans.
func (t *tracer) closed() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// named returns the durations of the finished spans called name.
func (t *tracer) named(name string) []float64 {
	var out []float64
	for _, s := range t.closed() {
		if s.Name == name {
			out = append(out, s.seconds())
		}
	}
	return out
}

// coverage is the sum of the durations of the children of spans called
// parent, divided by the sum of the parents' durations.
func (t *tracer) coverage(parent string) float64 {
	spans := t.closed()
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	var total, covered float64
	for _, s := range spans {
		if s.Name == parent {
			total += s.seconds()
		} else if p, ok := byID[s.Parent]; ok && p.Name == parent {
			covered += s.seconds()
		}
	}
	if total == 0 {
		return 0
	}
	return covered / total
}

// selfTimes sums, per span name, the span durations minus the part of
// each span's interval that its children cover.
func selfTimes(spans []span) map[string]float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]float64)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered time.Duration
		cur, curEnd := time.Duration(-1), time.Duration(-1)
		for _, k := range kids {
			start, end := max(k.Start, s.Start), min(k.End, s.End)
			if end <= start {
				continue
			}
			if start > curEnd {
				if curEnd > cur {
					covered += curEnd - cur
				}
				cur, curEnd = start, end
			} else if end > curEnd {
				curEnd = end
			}
		}
		if curEnd > cur {
			covered += curEnd - cur
		}
		self[s.Name] += (s.End - s.Start - covered).Seconds()
	}
	return self
}

// traceEvent is one span in Chrome trace-event format (open the file in
// Perfetto or chrome://tracing).
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// report writes the spans to the work directory and prints each span
// name's count, total and self time.
func (t *tracer) report(e *env) error {
	spans := t.closed()
	events := make([]traceEvent, len(spans))
	for i, s := range spans {
		events[i] = traceEvent{Name: s.Name, Ph: "X", Ts: float64(s.Start.Microseconds()),
			Dur: float64((s.End - s.Start).Microseconds()), Pid: 1, Tid: s.Op,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "op": s.Op}}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	path := filepath.Join(e.cfg.WorkDir, fmt.Sprintf("trace-%s-seed%d.json", e.cfg.Workload, e.cfg.Seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}

	count := make(map[string]int)
	total := make(map[string]float64)
	for _, s := range spans {
		count[s.Name]++
		total[s.Name] += s.seconds()
	}
	self := selfTimes(spans)
	var names []string
	for n := range count {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	var selfSum float64
	for _, n := range names {
		selfSum += self[n]
	}
	fmt.Fprintf(e.log, "%d spans written to %s\n", len(spans), path)
	fmt.Fprintf(e.log, "%-24s %6s %10s %10s %7s\n", "span", "count", "total_s", "self_s", "self_%")
	for _, n := range names {
		fmt.Fprintf(e.log, "%-24s %6d %10.3f %10.3f %6.1f%%\n", n, count[n], total[n], self[n], 100*self[n]/selfSum)
	}
	e.m.setLayer("trace.spans", float64(len(spans))/float64(e.rounds))
	return nil
}
