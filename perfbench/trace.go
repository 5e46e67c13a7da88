package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qse/internal/retrieval"
)

// Span is one timed call across a layer boundary. Spans of one request
// share Trace; Parent is the ID of the span that caused this one (0 for
// the request's root, the client's own span). Name is "<layer>.<op>",
// the layer being the module that owns the callee.
type Span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Bytes is the response body size on client spans.
	Bytes int `json:"bytes,omitempty"`
	// Stages is the per-stage breakdown the store returned with a search.
	Stages *retrieval.Timing `json:"stages,omitempty"`
}

func (s Span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

func (s Span) dur() int64 { return s.End - s.Start }

// selfTime is the part of the parent's interval that none of its
// children from another layer cover. Children of the parent's own layer
// (the server's decode inside its handler) are the layer's own work and
// are not subtracted. Children may overlap each other and may stick out
// of the parent; only the covered part of the parent counts.
func selfTime(parent Span, children []Span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		if c.layer() == parent.layer() {
			continue
		}
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			covered += v.hi - end
			end = v.hi
		}
	}
	return parent.dur() - covered
}

// tracer records spans in memory while on; they are written out once,
// at the end of the run. Off, every seam passes straight through after
// one atomic load.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []Span
	// byG maps a goroutine to the request span it is serving, for seams
	// the server calls on the handler's goroutine (decode, mutations).
	byG map[uint64]Span
	// byObj maps a decoded object to the request span it came from, for
	// the store search the server runs on a deadline goroutine of its own.
	byObj map[uintptr]Span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), byG: map[uint64]Span{}, byObj: map[uintptr]Span{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span under parent (a zero parent starts a new trace).
func (t *tracer) begin(name string, parent Span) Span {
	id := t.ids.Add(1)
	tr := parent.Trace
	if tr == 0 {
		tr = id
	}
	return Span{Trace: tr, ID: id, Parent: parent.ID, Name: name, Start: t.now()}
}

func (t *tracer) end(s Span) Span {
	s.End = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

func (t *tracer) bindG(s Span) {
	g := goid()
	t.mu.Lock()
	t.byG[g] = s
	t.mu.Unlock()
}

func (t *tracer) unbindG() {
	g := goid()
	t.mu.Lock()
	delete(t.byG, g)
	t.mu.Unlock()
}

func (t *tracer) fromG() Span {
	g := goid()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byG[g]
}

func (t *tracer) bindObj(key uintptr, s Span) {
	if key == 0 {
		return
	}
	t.mu.Lock()
	t.byObj[key] = s
	t.mu.Unlock()
}

// fromObj returns the span bound to key, falling back to the calling
// goroutine's span, and forgets the binding.
func (t *tracer) fromObj(key uintptr) Span {
	t.mu.Lock()
	s, ok := t.byObj[key]
	delete(t.byObj, key)
	t.mu.Unlock()
	if ok {
		return s
	}
	return t.fromG()
}

// take returns the recorded spans and clears the buffer.
func (t *tracer) take() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans
	t.spans = nil
	return s
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []Span) error {
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

// goid returns the calling goroutine's ID from its stack header
// ("goroutine 17 [running]:"). It costs about a microsecond and is only
// called while tracing.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = b[len("goroutine "):]
	if i := strings.IndexByte(string(b), ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

// traceTree groups spans by trace, with each span's children.
type traceTree struct {
	spans    []Span
	children map[uint64][]Span
}

func groupTraces(spans []Span) map[uint64]*traceTree {
	out := map[uint64]*traceTree{}
	for _, s := range spans {
		tt := out[s.Trace]
		if tt == nil {
			tt = &traceTree{children: map[uint64][]Span{}}
			out[s.Trace] = tt
		}
		tt.spans = append(tt.spans, s)
		if s.Parent != 0 {
			tt.children[s.Parent] = append(tt.children[s.Parent], s)
		}
	}
	return out
}

// find returns the first span of the trace with the given name.
func (tt *traceTree) find(name string) (Span, bool) {
	for _, s := range tt.spans {
		if s.Name == name {
			return s, true
		}
	}
	return Span{}, false
}
