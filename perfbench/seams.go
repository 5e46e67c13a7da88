package main

import (
	"encoding/json"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qse/internal/meta"
	"qse/internal/retrieval"
	"qse/internal/store"
)

// The benchmark records spans and counts only at seams it owns: the
// handler it serves Server.Handler() through, the decode function and the
// store.Backend it hands to server.New, and the distance and codec it
// builds the store with. The program itself is untouched.

// traceHeader carries "<trace>/<span>" from the client to the server.
const traceHeader = "X-Bench-Trace"

func (t *tracer) handler(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			inner.ServeHTTP(w, r)
			return
		}
		sp := t.begin("server.handler", parseTraceHeader(r.Header.Get(traceHeader)))
		t.bindG(sp)
		inner.ServeHTTP(w, r)
		t.unbindG()
		t.end(sp)
	})
}

func traceHeaderValue(s Span) string {
	return strconv.FormatUint(s.Trace, 10) + "/" + strconv.FormatUint(s.ID, 10)
}

func parseTraceHeader(v string) Span {
	a, b, ok := strings.Cut(v, "/")
	if !ok {
		return Span{}
	}
	tr, err1 := strconv.ParseUint(a, 10, 64)
	id, err2 := strconv.ParseUint(b, 10, 64)
	if err1 != nil || err2 != nil {
		return Span{}
	}
	return Span{Trace: tr, ID: id}
}

// objKey identifies a decoded object (by its backing array) so the store
// call it reaches can be joined to the request that decoded it.
func objKey[T any](x T) uintptr {
	v := reflect.ValueOf(x)
	if v.Kind() == reflect.Slice && v.Len() > 0 {
		return v.Pointer()
	}
	return 0
}

func tracedDecode[T any](t *tracer, inner func(json.RawMessage) (T, error)) func(json.RawMessage) (T, error) {
	return func(raw json.RawMessage) (T, error) {
		if !t.on.Load() {
			return inner(raw)
		}
		parent := t.fromG()
		sp := t.begin("server.decode", parent)
		x, err := inner(raw)
		t.end(sp)
		if err == nil {
			t.bindObj(objKey(x), parent)
		}
		return x, err
	}
}

// tracedStore is the store.Backend handed to server.New. Off, it passes
// every call through; on, it records a span per search, mutation and
// save, and notes each compaction a mutation triggered.
type tracedStore[T any] struct {
	store.Backend[T]
	tr *tracer

	mu          sync.Mutex
	compactions uint64
	compactNs   []int64
	saveBytes   []int64
}

func (s *tracedStore[T]) SearchFiltered(q T, k, p int, pred *meta.Predicate) ([]store.Result, retrieval.Stats, error) {
	if !s.tr.on.Load() {
		return s.Backend.SearchFiltered(q, k, p, pred)
	}
	sp := s.tr.begin("store.search", s.tr.fromObj(objKey(q)))
	res, st, err := s.Backend.SearchFiltered(q, k, p, pred)
	timing := st.Timing
	sp.Stages = &timing
	s.tr.end(sp)
	return res, st, err
}

func (s *tracedStore[T]) AddMeta(x T, md meta.Map) (uint64, error) {
	if !s.tr.on.Load() {
		return s.Backend.AddMeta(x, md)
	}
	sp := s.tr.begin("store.add", s.tr.fromObj(objKey(x)))
	id, err := s.Backend.AddMeta(x, md)
	s.tr.end(sp)
	s.noteCompaction()
	return id, err
}

func (s *tracedStore[T]) UpsertMeta(id uint64, x T, md meta.Map) error {
	if !s.tr.on.Load() {
		return s.Backend.UpsertMeta(id, x, md)
	}
	sp := s.tr.begin("store.upsert", s.tr.fromObj(objKey(x)))
	err := s.Backend.UpsertMeta(id, x, md)
	s.tr.end(sp)
	s.noteCompaction()
	return err
}

func (s *tracedStore[T]) Remove(id uint64) error {
	if !s.tr.on.Load() {
		return s.Backend.Remove(id)
	}
	sp := s.tr.begin("store.remove", s.tr.fromG())
	err := s.Backend.Remove(id)
	s.tr.end(sp)
	s.noteCompaction()
	return err
}

func (s *tracedStore[T]) Save(path string) error {
	if !s.tr.on.Load() {
		return s.Backend.Save(path)
	}
	sp := s.tr.begin("store.save", Span{})
	err := s.Backend.Save(path)
	s.tr.end(sp)
	st := s.Backend.Stats()
	s.mu.Lock()
	s.saveBytes = append(s.saveBytes, st.LastSnapshotBytes)
	s.mu.Unlock()
	return err
}

// noteCompaction records the duration of any compaction that ran since
// the last call (the store reports the latest one's duration).
func (s *tracedStore[T]) noteCompaction() {
	st := s.Backend.Stats()
	s.mu.Lock()
	defer s.mu.Unlock()
	if st.Compactions > s.compactions {
		s.compactions = st.Compactions
		s.compactNs = append(s.compactNs, st.LastCompactionNanos)
	}
}

// meter counts calls into a seam and, while on, times them.
type meter struct {
	on    atomic.Bool
	calls atomic.Int64
	nanos atomic.Int64
}

func (m *meter) reset() {
	m.calls.Store(0)
	m.nanos.Store(0)
}

func (m *meter) time(t0 time.Time) {
	m.nanos.Add(int64(time.Since(t0)))
	m.calls.Add(1)
}

func meteredDist[T any](m *meter, d func(a, b T) float64) func(a, b T) float64 {
	return func(a, b T) float64 {
		if !m.on.Load() {
			return d(a, b)
		}
		t0 := time.Now()
		v := d(a, b)
		m.time(t0)
		return v
	}
}

// meteredCodec wraps the bundle object codec, metering encodes and
// decodes separately.
type meteredCodec[T any] struct {
	inner    store.Codec[T]
	enc, dec *meter
}

func (c meteredCodec[T]) Encode(x T) ([]byte, error) {
	if !c.enc.on.Load() {
		return c.inner.Encode(x)
	}
	t0 := time.Now()
	b, err := c.inner.Encode(x)
	c.enc.time(t0)
	return b, err
}

func (c meteredCodec[T]) Decode(data []byte) (T, error) {
	if !c.dec.on.Load() {
		return c.inner.Decode(data)
	}
	t0 := time.Now()
	x, err := c.inner.Decode(data)
	c.dec.time(t0)
	return x, err
}
