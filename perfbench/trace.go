package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval of a traced run. Spans of one request share
// Req: the client's loadgen.post span and the server's simd.handler span
// carry the same ID.
type span struct {
	ID     uint64  `json:"id"`
	Parent uint64  `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Req    string  `json:"req,omitempty"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	// Self is the duration minus the part of it the span's children
	// cover, filled in by selfTimes.
	Self float64 `json:"self_us"`
}

// tracer keeps a traced run's spans in memory until the run ends. A nil
// *tracer records nothing, so untraced runs share the traced code paths
// at the cost of a nil check.
type tracer struct {
	t0    time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID reserves a span ID, so children can name a parent that has not
// ended yet. It returns 0 on a nil tracer.
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// record stores a finished span under an ID from newID.
func (t *tracer) record(id, parent uint64, name string, start, end time.Time) {
	t.recordReq(id, parent, name, "", start, end)
}

func (t *tracer) recordReq(id, parent uint64, name, req string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Name: name, Req: req,
		Start: float64(start.Sub(t.t0).Nanoseconds()) / 1e3, End: float64(end.Sub(t.t0).Nanoseconds()) / 1e3}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// phase runs fn inside a span named name under parent and returns fn's
// wall time.
func (t *tracer) phase(parent uint64, name string, fn func(id uint64)) time.Duration {
	id := t.newID()
	start := time.Now()
	fn(id)
	end := time.Now()
	t.record(id, parent, name, start, end)
	return end.Sub(start)
}

// middleware wraps the server's handler in a simd.handler span per
// request, parented to the client span named by the request-ID header.
func (t *tracer) middleware(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		req := r.Header.Get(requestIDHeader)
		parent, _ := strconv.ParseUint(req, 10, 64)
		t.recordReq(t.newID(), parent, "simd.handler", req, start, time.Now())
	})
}

// durations returns the wall times, in milliseconds, of every span named
// name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, (s.End-s.Start)/1e3)
		}
	}
	return out
}

// selfTimes fills in every span's Self.
func selfTimes(spans []span) {
	kids := map[uint64][][2]float64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		iv := kids[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, reach := 0.0, s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// report prints one line per span name: count, total and self time.
func (t *tracer) report(w io.Writer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	selfTimes(t.spans)
	type agg struct {
		n           int
		total, self float64
	}
	by := map[string]*agg{}
	var names []string
	for _, s := range t.spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
			names = append(names, s.Name)
		}
		a.n++
		a.total += s.End - s.Start
		a.self += s.Self
	}
	sort.Strings(names)
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(w, "span %-28s n=%-6d total=%10.3f ms  self=%10.3f ms\n", n, a.n, a.total/1e3, a.self/1e3)
	}
}

// dump writes every span as JSON to path.
func (t *tracer) dump(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	selfTimes(t.spans)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
