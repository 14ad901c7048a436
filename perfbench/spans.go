package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer's public API.
// Spans of one training step or one request share a trace id; a child
// names the span that caused it in parent.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog
// records nothing and reads no clock, which is how untraced units run.
type spanLog struct {
	t0   time.Time
	next atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// active is an open span; end records it.
type active struct {
	l *spanLog
	s span
}

// start opens a span. On a nil log it returns the zero active, whose id
// is 0 and whose end is a no-op.
func (l *spanLog) start(trace uint64, parent int64, name string) active {
	if l == nil {
		return active{}
	}
	return active{l: l, s: span{
		Trace: trace, ID: l.next.Add(1), Parent: parent, Name: name,
		Start: int64(time.Since(l.t0)),
	}}
}

func (a active) id() int64 { return a.s.ID }

// end records the span and returns its duration in milliseconds (0 for
// the zero active).
func (a active) end() float64 {
	if a.l == nil {
		return 0
	}
	a.s.End = int64(time.Since(a.l.t0))
	a.l.mu.Lock()
	a.l.spans = append(a.l.spans, a.s)
	a.l.mu.Unlock()
	return float64(a.s.End-a.s.Start) / 1e6
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	// SelfMS is the total minus the part of each span's interval that
	// its child spans cover.
	SelfMS float64 `json:"self_ms"`
}

// layerTimes returns per-name total and self time, sorted by name.
func layerTimes(spans []span) []layerTime {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	acc := map[string]*layerTime{}
	for _, s := range spans {
		lt := acc[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			acc[s.Name] = lt
		}
		dur := s.End - s.Start
		lt.Count++
		lt.TotalMS += float64(dur) / 1e6
		lt.SelfMS += float64(dur-covered(s, children[s.ID])) / 1e6
	}
	out := make([]layerTime, 0, len(acc))
	for _, lt := range acc {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how many nanoseconds of parent's interval the union of
// the children's intervals covers.
func covered(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// write dumps the spans and per-layer times as one JSON document.
func (l *spanLog) write(path string) ([]layerTime, error) {
	l.mu.Lock()
	spans := append([]span(nil), l.spans...)
	l.mu.Unlock()
	times := layerTimes(spans)
	doc := struct {
		Layers []layerTime `json:"layers"`
		Spans  []span      `json:"spans"`
	}{times, spans}
	buf, err := json.Marshal(doc)
	if err != nil {
		return nil, fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	return times, nil
}
