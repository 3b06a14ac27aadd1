package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// traceSpan is one recorded interval on the benchmark's clock. Spans of one
// operation share ID; Parent is "" for the root.
type traceSpan struct {
	ID     uint64 `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// readSpans builds the span tree of one consistent read: the root
// ccs.invoke from invoke to first reply, and its three children on the
// replica whose reply arrived first — rpc.request until the application
// was entered, core.gettimeofday around the Gettimeofday call, and
// rpc.reply from leaving the application to the reply's delivery.
func readSpans(ord uint64, r readRec, e execRecord) []traceSpan {
	const root = "ccs.invoke"
	return []traceSpan{
		{ID: ord, Name: root, Start: r.start, End: r.end},
		{ID: ord, Name: "rpc.request", Parent: root, Start: r.start, End: e.enter},
		{ID: ord, Name: "core.gettimeofday", Parent: root, Start: e.enter, End: e.gtodEnd},
		{ID: ord, Name: "rpc.reply", Parent: root, Start: e.exit, End: r.end},
	}
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval its children cover. Children may overlap each other and
// stick out of their parent; only their union inside the parent counts.
// Spans are matched to children by ID and parent name.
func selfTimes(spans []traceSpan) []int64 {
	out := make([]int64, len(spans))
	for i, p := range spans {
		var kids [][2]int64
		for _, c := range spans {
			if c.ID == p.ID && c.Parent == p.Name {
				lo, hi := max(c.Start, p.Start), min(c.End, p.End)
				if lo < hi {
					kids = append(kids, [2]int64{lo, hi})
				}
			}
		}
		out[i] = (p.End - p.Start) - unionLen(kids)
	}
	return out
}

// unionLen is the total length covered by the intervals.
func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		if !open || x[0] > curHi {
			if open {
				total += curHi - curLo
			}
			curLo, curHi, open = x[0], x[1], true
			continue
		}
		curHi = max(curHi, x[1])
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// meanSelf accumulates mean self time and duration per span name.
type meanSelf struct {
	self map[string]int64
	dur  map[string]int64
	n    map[string]int64
}

func newMeanSelf() *meanSelf {
	return &meanSelf{self: map[string]int64{}, dur: map[string]int64{}, n: map[string]int64{}}
}

func (m *meanSelf) add(spans []traceSpan) {
	for i, s := range selfTimes(spans) {
		m.self[spans[i].Name] += s
		m.dur[spans[i].Name] += spans[i].End - spans[i].Start
		m.n[spans[i].Name]++
	}
}

// meanUS is the mean self time of name in µs.
func (m *meanSelf) meanUS(name string) float64 { return m.mean(m.self, name) }

// meanDurUS is the mean duration of name in µs.
func (m *meanSelf) meanDurUS(name string) float64 { return m.mean(m.dur, name) }

func (m *meanSelf) mean(total map[string]int64, name string) float64 {
	if m.n[name] == 0 {
		return 0
	}
	return float64(total[name]) / float64(m.n[name]) / 1e3
}

// writeSpans writes spans as JSON lines.
func writeSpans(w io.Writer, spans []traceSpan) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return nil
}
