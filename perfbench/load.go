package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

type opKind int

const (
	opSearch opKind = iota
	opAdd
	opUpsert
	opRemove
	opSave
)

var kindNames = [...]string{"search", "add", "upsert", "remove", "save"}

func (k opKind) write() bool { return k == opAdd || k == opUpsert || k == opRemove }

// op is one operation of a workload's stream. Request bodies are encoded
// during set-up, so the load generator spends no time marshalling.
type op struct {
	kind   opKind
	method string
	path   string
	body   []byte
	// tenant is the tenant every result of a filtered search must carry.
	tenant string
}

func searchOp(body []byte, tenant string) op {
	return op{kind: opSearch, method: http.MethodPost, path: "/v1/search", body: body, tenant: tenant}
}

func addOp(body []byte) op {
	return op{kind: opAdd, method: http.MethodPost, path: "/v1/objects", body: body}
}

func upsertOp(id uint64, body []byte) op {
	return op{kind: opUpsert, method: http.MethodPut, path: "/v1/objects/" + strconv.FormatUint(id, 10), body: body}
}

func removeOp(id uint64) op {
	return op{kind: opRemove, method: http.MethodDelete, path: "/v1/objects/" + strconv.FormatUint(id, 10)}
}

// sample is the client's record of one operation.
type sample struct {
	kind  opKind
	due   time.Time // open loop only
	sent  time.Time
	done  time.Time
	ok    bool
	dists int    // a search's embed + refine distances
	id    uint64 // an add's assigned ID
}

// latency is measured from the due time in an open loop and from the
// send in a closed loop.
func (s sample) latency() time.Duration {
	if s.due.IsZero() {
		return s.done.Sub(s.sent)
	}
	lat, _ := dueLatency(s.due, s.sent, s.done)
	return lat
}

// client is the benchmark's load generator: at most `workers` goroutines,
// each owning at most one keep-alive connection. Every call names the
// server it goes to; the run spreads its phases over several servers,
// one after another.
type client struct {
	hc      *http.Client
	tr      *tracer
	workers int
	k       int
	// md is the initial objects' metadata, which filtered results are
	// checked against. Filtered searches run only while the store holds
	// exactly those objects: before the write probe, and after it has
	// removed everything it added.
	md []map[string]any
	// seq is the next index into the workload's op stream; phases
	// continue the stream rather than replaying it.
	seq atomic.Int64
}

func newClient(workers, k int, tr *tracer) *client {
	tp := &http.Transport{
		MaxIdleConns:        workers,
		MaxIdleConnsPerHost: workers,
		MaxConnsPerHost:     workers,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tp}, tr: tr, workers: workers, k: k}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

type searchResp struct {
	Results []struct {
		ID       uint64  `json:"id"`
		Distance float64 `json:"distance"`
	} `json:"results"`
	Stats struct {
		EmbedDistances  int `json:"embed_distances"`
		RefineDistances int `json:"refine_distances"`
	} `json:"stats"`
}

// do runs one operation, fills s and returns the response body. s.ok is
// false on a transport error, a non-2xx status or a response that fails
// its check.
func (c *client) do(base string, o op, s *sample) []byte {
	s.kind = o.kind
	req, err := http.NewRequest(o.method, base+o.path, bytes.NewReader(o.body))
	if err != nil {
		return nil
	}
	traced := c.tr.on.Load()
	var sp Span
	if traced {
		name := "loadgen." + kindNames[o.kind]
		if o.kind == opSearch && o.tenant != "" {
			name += "_filtered"
		}
		sp = c.tr.begin(name, Span{})
		req.Header.Set(traceHeader, traceHeaderValue(sp))
	}
	s.sent = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		s.done = time.Now()
		return nil
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.done = time.Now()
	if traced {
		sp.Bytes = len(body)
		c.tr.end(sp)
	}
	if err != nil || resp.StatusCode/100 != 2 {
		return body
	}
	s.ok = c.check(o, body, s)
	return body
}

// check validates a 2xx response body.
func (c *client) check(o op, body []byte, s *sample) bool {
	switch o.kind {
	case opSearch:
		var r searchResp
		if json.Unmarshal(body, &r) != nil || len(r.Results) != c.k {
			return false
		}
		prev := math.Inf(-1)
		for _, x := range r.Results {
			if !(x.Distance >= prev) {
				return false
			}
			prev = x.Distance
			if o.tenant != "" {
				if x.ID >= uint64(len(c.md)) {
					return false
				}
				if t, _ := c.md[x.ID]["tenant"].(string); t != o.tenant {
					return false
				}
			}
		}
		s.dists = r.Stats.EmbedDistances + r.Stats.RefineDistances
		return s.dists > 0
	case opAdd:
		var r struct {
			ID *uint64 `json:"id"`
		}
		if json.Unmarshal(body, &r) != nil || r.ID == nil {
			return false
		}
		s.id = *r.ID
	}
	return true
}

// run does o and appends its sample.
func (c *client) run(base string, o op, due time.Time, out *[]sample) sample {
	s := sample{due: due}
	c.do(base, o, &s)
	*out = append(*out, s)
	return s
}

// closedLoop sends the stream for d from one client that waits for
// each response before it sends the next request. One client, not one
// per CPU: on a shared 2-vCPU VM, the rate of two saturating clients
// moved by up to a quarter between the one-second windows of one run and
// between runs, while one client's rate is about as steady as the
// latency of a single request.
func (c *client) closedLoop(base string, d time.Duration, stream func(int64) op) ([]sample, time.Time) {
	start := time.Now()
	deadline := start.Add(d)
	var out []sample
	for time.Now().Before(deadline) {
		c.run(base, stream(c.seq.Add(1)-1), time.Time{}, &out)
	}
	return out, start
}

// openLoop sends n requests of the stream on a fixed schedule, one every
// 1/rate seconds, whatever the server's pace. A request waits for a free
// worker when every worker is still busy; its latency counts from its
// due time, so that wait is charged to it.
func (c *client) openLoop(base string, n int, rate float64, stream func(int64) op) []sample {
	first := c.seq.Add(int64(n)) - int64(n)
	start := time.Now().Add(time.Millisecond)
	var next atomic.Int64
	outs := make([][]sample, c.workers)
	var wg sync.WaitGroup
	for w := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := next.Add(1) - 1
				if j >= int64(n) {
					return
				}
				due := start.Add(time.Duration(float64(j) / rate * 1e9))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				c.run(base, stream(first+j), due, &outs[w])
			}
		}()
	}
	wg.Wait()
	return concat(outs)
}

// writeProbe adds, replaces and removes objects lo..hi-1, one request
// at a time, so a write's latency is its own and not a wait behind
// another worker's write.
func (c *client) writeProbe(base string, lo, hi int, add func(i int) op, upsertBody func(i int) []byte) []sample {
	var out []sample
	for i := lo; i < hi; i++ {
		s := c.run(base, add(i), time.Time{}, &out)
		if !s.ok {
			continue
		}
		c.run(base, upsertOp(s.id, upsertBody(i)), time.Time{}, &out)
		c.run(base, removeOp(s.id), time.Time{}, &out)
	}
	return out
}

func concat(outs [][]sample) []sample {
	var all []sample
	for _, o := range outs {
		all = append(all, o...)
	}
	return all
}
