package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed interval recorded by the harness around a call into a
// layer. parent indexes the enclosing span in the same buffer (-1 for a
// step span).
type span struct {
	name    uint16 // index into spanBuf.names
	rank    uint16
	step    int32
	parent  int32
	startNS int64
	durNS   int64
}

// spanBuf keeps one rank's spans in a preallocated slice; nothing is
// written until the workload ends. A full buffer drops further spans and
// counts them, it never grows during the timed phase.
type spanBuf struct {
	rank    int
	base    time.Time
	spans   []span
	dropped int
	names   []string // span name, "<layer>.<what>"
	ids     map[string]uint16
}

func newSpanBuf(rank int, base time.Time, capacity int) *spanBuf {
	return &spanBuf{rank: rank, base: base, spans: make([]span, 0, capacity), ids: map[string]uint16{}}
}

// id interns a span name; call it before the timed phase.
func (b *spanBuf) id(name string) uint16 {
	if i, ok := b.ids[name]; ok {
		return i
	}
	i := uint16(len(b.names))
	b.names = append(b.names, name)
	b.ids[name] = i
	return i
}

func (b *spanBuf) now() int64 { return int64(time.Since(b.base)) }

// open appends a span whose duration is filled in by close, and returns its
// index for use as a parent (-1 when the buffer is full).
func (b *spanBuf) open(name uint16, step int, parent int32, start int64) int32 {
	if len(b.spans) == cap(b.spans) {
		b.dropped++
		return -1
	}
	b.spans = append(b.spans, span{name: name, rank: uint16(b.rank), step: int32(step), parent: parent, startNS: start})
	return int32(len(b.spans) - 1)
}

func (b *spanBuf) close(i int32, end int64) {
	if i >= 0 {
		b.spans[i].durNS = end - b.spans[i].startNS
	}
}

// add records a completed span.
func (b *spanBuf) add(name uint16, step int, parent int32, start, end int64) {
	b.close(b.open(name, step, parent, start), end)
}

// spanSummary aggregates one span name on one rank over the timed phase
// (warm-up steps carry negative step numbers and appear in the trace file
// only): total time, and self time = total minus the part covered by child
// spans.
type spanSummary struct {
	Name    string  `json:"name"`
	Rank    int     `json:"rank"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func (b *spanBuf) summarize() []spanSummary {
	total := make([]int64, len(b.names))
	child := make([]int64, len(b.names))
	count := make([]int, len(b.names))
	for _, s := range b.spans {
		if s.step < 0 {
			continue
		}
		total[s.name] += s.durNS
		count[s.name]++
		if s.parent >= 0 {
			child[b.spans[s.parent].name] += s.durNS
		}
	}
	out := make([]spanSummary, 0, len(b.names))
	for i, n := range b.names {
		if count[i] == 0 {
			continue
		}
		out = append(out, spanSummary{Name: n, Rank: b.rank, Count: count[i],
			TotalMS: ms(total[i]), SelfMS: ms(total[i] - child[i])})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TotalMS > out[j].TotalMS })
	return out
}

// totalNS sums the durations of the timed-phase spans with the given name.
func (b *spanBuf) totalNS(name string) int64 {
	id, ok := b.ids[name]
	if !ok {
		return 0
	}
	var sum int64
	for _, s := range b.spans {
		if s.name == id && s.step >= 0 {
			sum += s.durNS
		}
	}
	return sum
}

// writeChromeTrace writes the buffers as Chrome trace-event JSON (load in
// chrome://tracing or Perfetto): one complete ("X") event per span, one
// thread per rank.
func writeChromeTrace(path string, bufs []*spanBuf) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	for _, b := range bufs {
		for i, s := range b.spans {
			if !first {
				w.WriteByte(',')
			}
			first = false
			name, _ := json.Marshal(b.names[s.name])
			fmt.Fprintf(w, "\n"+`{"name":%s,"cat":%q,"ph":"X","pid":0,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"step":%d,"id":%d,"parent":%d}}`,
				name, layerOf(b.names[s.name]), s.rank, float64(s.startNS)/1e3, float64(s.durNS)/1e3, s.step, i, s.parent)
		}
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerOf returns the layer (repo package) a span name belongs to: the part
// before the first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}
