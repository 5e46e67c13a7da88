package main

import (
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1},
	} {
		got, ok := quantile(xs, c.q)
		if !ok || got != c.want {
			t.Errorf("quantile(1..100, %v) = %v, %v; want %v", c.q, got, ok, c.want)
		}
	}
	if xs[0] != 100 {
		t.Error("quantile sorted its input in place")
	}
	if _, ok := quantile(nil, 0.5); ok {
		t.Error("quantile of no samples reported a value")
	}
	if got, _ := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("quantile of one sample = %v, want 7", got)
	}
}

func TestMedianOfGroupQuantiles(t *testing.T) {
	// Five groups of 10 samples: each group's p90 is its 9th-smallest
	// sample (nearest rank, ceil(0.9·10) = 9). One group is a burst ten
	// times slower; it moves its own p90 but not the median of the five.
	var groups [][]float64
	for g := range 5 {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = float64(i + 1 + g)
			if g == 2 {
				xs[i] *= 10
			}
		}
		groups = append(groups, xs)
	}
	groups = append(groups, nil) // an empty group has no quantile and is skipped
	med, per := medianOfQuantiles(groups, 0.9)
	want := []float64{9, 10, 110, 12, 13}
	if len(per) != len(want) {
		t.Fatalf("per-group p90s %v, want %v", per, want)
	}
	for i := range want {
		if per[i] != want[i] {
			t.Fatalf("per-group p90s %v, want %v", per, want)
		}
	}
	// Nearest-rank median of five values is the 3rd smallest.
	if med != 12 {
		t.Errorf("median of group p90s = %v, want 12", med)
	}
}

func TestDueWindowsGroupByDueTime(t *testing.T) {
	t0 := time.Unix(100, 0)
	at := func(dueMs, doneMs int, kind opKind, ok bool) sample {
		due := t0.Add(time.Duration(dueMs) * time.Millisecond)
		return sample{kind: kind, ok: ok, due: due, sent: due, done: t0.Add(time.Duration(doneMs) * time.Millisecond)}
	}
	ss := []sample{
		at(1500, 1502, opSearch, true),  // window 1, 2 ms
		at(0, 1, opSearch, true),        // window 0 (the first due time), 1 ms
		at(999, 1004, opSearch, true),   // window 0, 5 ms
		at(1000, 1001, opSearch, false), // failed: not a latency
		at(1200, 1207, opAdd, true),     // not a search
		at(3000, 3003, opSearch, true),  // window 3; window 2 is empty
	}
	got := dueWindows(ss, time.Second)
	want := [][]float64{{1, 5}, {2}, nil, {3}}
	if len(got) != len(want) {
		t.Fatalf("windows %v, want %v", got, want)
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("windows %v, want %v", got, want)
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("windows %v, want %v", got, want)
			}
		}
	}
}

func TestDueLatencyChargesGeneratorLag(t *testing.T) {
	due := time.Unix(100, 0)
	// Sent 3 ms late (the generator was stalled), answered 2 ms later:
	// the request's latency is 5 ms, of which 3 ms is lag.
	lat, lag := dueLatency(due, due.Add(3*time.Millisecond), due.Add(5*time.Millisecond))
	if lat != 5*time.Millisecond || lag != 3*time.Millisecond {
		t.Errorf("late send: latency %v lag %v, want 5ms 3ms", lat, lag)
	}
	// A send ahead of schedule has no lag and latency still counts from
	// the due time.
	lat, lag = dueLatency(due, due.Add(-time.Millisecond), due.Add(2*time.Millisecond))
	if lat != 2*time.Millisecond || lag != 0 {
		t.Errorf("early send: latency %v lag %v, want 2ms 0", lat, lag)
	}
	s := sample{due: due, sent: due.Add(3 * time.Millisecond), done: due.Add(5 * time.Millisecond)}
	if s.latency() != 5*time.Millisecond {
		t.Errorf("open-loop sample latency %v, want 5ms", s.latency())
	}
	s.due = time.Time{}
	if s.latency() != 2*time.Millisecond {
		t.Errorf("closed-loop sample latency %v, want 2ms", s.latency())
	}
}

func TestSelfTimeFromNestedSpans(t *testing.T) {
	sp := func(name string, start, end int64) Span { return Span{Name: name, Start: start, End: end} }
	handler := sp("server.handler", 0, 100)
	for _, c := range []struct {
		name     string
		children []Span
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []Span{sp("store.search", 10, 60)}, 50},
		// The decode is the server's own work, not a child layer's.
		{"same-layer child", []Span{sp("server.decode", 0, 20), sp("store.search", 30, 90)}, 40},
		{"overlapping children", []Span{sp("store.search", 10, 50), sp("store.add", 30, 70)}, 40},
		{"nested children", []Span{sp("store.search", 10, 80), sp("oracle.call", 20, 30)}, 30},
		{"child sticking out", []Span{sp("store.search", 90, 130), sp("store.add", -20, 5)}, 85},
		{"disjoint children", []Span{sp("store.search", 10, 20), sp("store.add", 40, 45)}, 85},
	} {
		if got := selfTime(handler, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSpansOfOneRequestShareATrace(t *testing.T) {
	tr := newTracer()
	root := tr.begin("loadgen.search", Span{})
	h := tr.begin("server.handler", parseTraceHeader("x"))
	if h.Trace == root.Trace {
		t.Fatal("a malformed header joined an existing trace")
	}
	h = tr.begin("server.handler", parseTraceHeader(traceHeaderValue(root)))
	s := tr.begin("store.search", h)
	tr.end(s)
	tr.end(h)
	tr.end(root)
	trees := groupTraces(tr.take())
	tt := trees[root.Trace]
	if tt == nil || len(tt.spans) != 3 {
		t.Fatalf("trace %d holds %v, want 3 spans", root.Trace, tt)
	}
	if kids := tt.children[root.ID]; len(kids) != 1 || kids[0].ID != h.ID {
		t.Errorf("root's children %v, want the handler", kids)
	}
	if kids := tt.children[h.ID]; len(kids) != 1 || kids[0].ID != s.ID {
		t.Errorf("handler's children %v, want the store span", kids)
	}
}

func TestGoroutineAndObjectBindings(t *testing.T) {
	tr := newTracer()
	h := tr.begin("server.handler", Span{})
	tr.bindG(h)
	if got := tr.fromG(); got.ID != h.ID {
		t.Fatalf("fromG on the binding goroutine = %d, want %d", got.ID, h.ID)
	}
	q := []float64{1, 2}
	tr.bindObj(objKey(q), h)
	tr.unbindG()
	done := make(chan Span)
	go func() { done <- tr.fromObj(objKey(q)) }()
	if got := <-done; got.ID != h.ID {
		t.Errorf("fromObj on another goroutine = %d, want %d", got.ID, h.ID)
	}
	if got := tr.fromObj(objKey(q)); got.ID != 0 {
		t.Errorf("binding survived its lookup: %d", got.ID)
	}
}
