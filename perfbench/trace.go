package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Times are
// nanoseconds from the tracer's start; Parent is the index of the
// enclosing span (-1 for a root) and Op the index of the op it serves
// within its pass (-1 when it serves a batch).
type span struct {
	Name   string `json:"name"`
	Pass   string `json:"pass"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Batch  int    `json:"batch"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out when the run
// ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// add records a finished span and returns its index.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// timed runs fn inside a span named name under parent.
func (t *tracer) timed(name, pass string, parent, batch int, fn func()) int64 {
	start := t.now()
	fn()
	end := t.now()
	t.add(span{Name: name, Pass: pass, Start: start, End: end, Parent: parent, Op: -1, Batch: batch})
	return end - start
}

// selfTimes returns each span's duration minus the part of its
// interval that its children cover (overlapping children count once).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		ivs := make([][2]int64, 0, len(kids))
		for _, k := range kids {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if b > a {
				ivs = append(ivs, [2]int64{a, b})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, curA, curB int64
		open := false
		for _, iv := range ivs {
			switch {
			case !open:
				curA, curB, open = iv[0], iv[1], true
			case iv[0] <= curB:
				curB = max(curB, iv[1])
			default:
				covered += curB - curA
				curA, curB = iv[0], iv[1]
			}
		}
		if open {
			covered += curB - curA
		}
		self[i] = s.dur() - covered
	}
	return self
}

// spanRow summarizes one span name in the per-layer table.
type spanRow struct {
	name        string
	count       int
	p50, selfMs float64 // duration p50 and self-time p50, ms
	totalSelfMs float64
}

func summarizeSpans(spans []span) []spanRow {
	self := selfTimes(spans)
	type acc struct{ dur, self []float64 }
	byName := make(map[string]*acc)
	for i, s := range spans {
		key := s.Pass + " " + s.Name
		a := byName[key]
		if a == nil {
			a = &acc{}
			byName[key] = a
		}
		a.dur = append(a.dur, float64(s.dur())/1e6)
		a.self = append(a.self, float64(self[i])/1e6)
	}
	var rows []spanRow
	for _, name := range sortedKeys(byName) {
		a := byName[name]
		total := 0.0
		for _, x := range a.self {
			total += x
		}
		rows = append(rows, spanRow{name: name, count: len(a.dur), p50: medianOf(a.dur), selfMs: medianOf(a.self), totalSelfMs: total})
	}
	return rows
}

func printSpanTable(out io.Writer, rows []spanRow) {
	fmt.Fprintf(out, "  %-32s %8s %12s %12s %14s\n", "span (pass name)", "count", "p50 ms", "self p50 ms", "self total ms")
	for _, r := range rows {
		fmt.Fprintf(out, "  %-32s %8d %12.4f %12.4f %14.2f\n", r.name, r.count, r.p50, r.selfMs, r.totalSelfMs)
	}
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
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
