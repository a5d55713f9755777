package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one interval the harness observed around a call into the
// program. Times are Unix nanoseconds so spans recorded in child
// processes merge onto one timeline. Parent 0 marks a root.
type span struct {
	ID     int            `json:"id"`
	Parent int            `json:"parent"`
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"`
	End    int64          `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// recorder keeps spans in memory until the run ends. A disabled recorder
// (untraced runs) records nothing and returns span ID 0 everywhere.
type recorder struct {
	on    bool
	spans []span
}

func (r *recorder) start(name string, parent int, at time.Time) int {
	if r == nil || !r.on {
		return 0
	}
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Start: at.UnixNano()})
	return len(r.spans)
}

func (r *recorder) finish(id int, at time.Time, attrs map[string]any) {
	if r == nil || id == 0 {
		return
	}
	sp := &r.spans[id-1]
	sp.End = at.UnixNano()
	if len(attrs) > 0 {
		sp.Attrs = attrs
	}
}

// graft appends spans recorded elsewhere (a child process), renumbering
// their IDs and hanging their roots under parent.
func (r *recorder) graft(spans []span, parent int) {
	if r == nil || !r.on {
		return
	}
	base := len(r.spans)
	for _, sp := range spans {
		sp.ID += base
		if sp.Parent == 0 {
			sp.Parent = parent
		} else {
			sp.Parent += base
		}
		r.spans = append(r.spans, sp)
	}
}

// traceLine is one line of bench-trace.jsonl.
type traceLine struct {
	Run    string         `json:"run"`
	ID     int            `json:"id"`
	Parent int            `json:"parent"`
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"`
	End    int64          `json:"end_ns"`
	Dur    int64          `json:"dur_ns"`
	Self   int64          `json:"self_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children (overlapping children counted once).
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, sp := range spans {
		if sp.Parent != 0 {
			kids[sp.Parent] = append(kids[sp.Parent], sp)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, sp := range spans {
		cs := kids[sp.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered, reach int64
		reach = sp.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, sp.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[sp.ID] = sp.End - sp.Start - covered
	}
	return out
}

// writeTrace writes the spans of one benchmark run as JSON lines, every
// line carrying the run's ID.
func writeTrace(path, runID string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	self := selfTimes(spans)
	for _, sp := range spans {
		line := traceLine{Run: runID, ID: sp.ID, Parent: sp.Parent, Name: sp.Name, Start: sp.Start, End: sp.End,
			Dur: sp.End - sp.Start, Self: self[sp.ID], Attrs: sp.Attrs}
		if err := enc.Encode(&line); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
