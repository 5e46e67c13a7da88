package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"qse"
	"qse/internal/meta"
	"qse/internal/server"
	"qse/internal/store"
)

// minRecall is the recall@k below which the probe gate fails: far under
// what either workload reaches (0.90–1.0), so it trips only on a broken
// index, not on a seed.
const minRecall = 0.5

// builds is how many times a run builds its store from the seed. Every
// build is served, each on a listener of its own, and every measured
// phase is split evenly over them, one build after another. Builds with
// identical contents differ in where their memory lands, and within one
// process that alone moved a build's two-client closed-loop throughput
// by up to a third on a 2-vCPU VM; a median over windows taken on
// several builds does not hang on one layout. setup_s and the set-up
// layer times are medians over the builds.
const builds = 3

// The write probe saves after every probeRound add/upsert/remove
// triples (48 writes); the write p50 and p90 are medians over the
// rounds' p50s and p90s, save_p50_ms the median over the saves.
const probeRound = 16

type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	// dir holds everything the run writes.
	dir string
}

type setupTimes struct {
	total, train, build, open, codecDecode time.Duration
}

// instance is one built and served store.
type instance[T any] struct {
	backend *tracedStore[T]
	hs      *http.Server
	served  chan struct{}
	base    string
	dir     string
	bundle  string
}

func (x *instance[T]) close() {
	x.hs.Close()
	<-x.served
	x.backend.Close()
	os.RemoveAll(x.dir)
}

// serveOptions are the serving binary's default server options.
func serveOptions() server.Options {
	return server.Options{
		MaxBodyBytes:  server.DefaultMaxBody,
		MaxInFlight:   256,
		SearchTimeout: 30 * time.Second,
		SlowLogSize:   server.DefaultSlowLogSize,
	}
}

// setup generates the inputs and builds, saves, reopens and serves the
// store through the calls a serving deployment makes.
func setup[T any](w spec[T], rc runConfig, rep int, dist func(a, b T) float64, codec qse.Codec[T], tr *tracer) (*instance[T], *inputs[T], setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	in, err := w.gen(rc.seed)
	if err != nil {
		return nil, nil, st, err
	}
	cfg := w.train
	cfg.Seed = rc.seed
	t1 := time.Now()
	model, err := qse.Train(in.db, dist, cfg)
	if err != nil {
		return nil, nil, st, fmt.Errorf("training: %w", err)
	}
	t2 := time.Now()
	built, err := qse.NewStore(model, in.db, dist, codec)
	if err != nil {
		return nil, nil, st, fmt.Errorf("building store: %w", err)
	}
	// Metadata can only be attached through a mutation; folding the
	// upserts back into the base leaves a clean store to serve.
	for i, md := range in.md {
		if err := built.UpsertWithMetadata(uint64(i), in.db[i], md); err != nil {
			return nil, nil, st, fmt.Errorf("attaching metadata: %w", err)
		}
	}
	if in.md != nil {
		built.Compact()
	}
	t3 := time.Now()
	dir := filepath.Join(rc.dir, "work", fmt.Sprintf("%s-%d-%d", w.name, os.Getpid(), rep))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, st, err
	}
	bundle := filepath.Join(dir, "store.bundle")
	if err := built.Save(bundle); err != nil {
		return nil, nil, st, fmt.Errorf("saving store: %w", err)
	}
	t4 := time.Now()
	be, err := store.OpenAuto(bundle, dist, codec)
	if err != nil {
		return nil, nil, st, fmt.Errorf("opening store: %w", err)
	}
	t5 := time.Now()
	ts := &tracedStore[T]{Backend: be, tr: tr}
	srv := server.New[T](ts, tracedDecode(tr, w.decode), serveOptions())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, st, err
	}
	x := &instance[T]{
		backend: ts, dir: dir, bundle: bundle,
		hs:     &http.Server{Handler: tr.handler(srv.Handler()), ReadHeaderTimeout: 10 * time.Second},
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
	}
	go func() {
		defer close(x.served)
		x.hs.Serve(ln)
	}()
	resp, err := http.Get(x.base + "/healthz")
	if err != nil {
		x.close()
		return nil, nil, st, err
	}
	resp.Body.Close()
	st = setupTimes{total: time.Since(t0), train: t2.Sub(t1), build: t3.Sub(t2), open: t5.Sub(t4)}
	return x, in, st, nil
}

// bodies are the pre-encoded requests of a workload.
type bodies struct {
	search, filtered [][]byte // per query
	add              [][]byte // per object
}

func encodeBodies[T any](w spec[T], in *inputs[T]) (*bodies, error) {
	b := &bodies{}
	for i, q := range in.queries {
		raw, err := json.Marshal(q)
		if err != nil {
			return nil, err
		}
		b.search = append(b.search, fmt.Appendf(nil, `{"query":%s,"k":%d,"p":%d}`, raw, w.k, w.p))
		if in.qTenant != nil {
			b.filtered = append(b.filtered, fmt.Appendf(nil, `{"query":%s,"k":%d,"p":%d,"filter":{"field":"tenant","eq":%q}}`, raw, w.k, w.p, in.qTenant[i]))
		}
	}
	for i, o := range in.objects {
		raw, err := json.Marshal(o)
		if err != nil {
			return nil, err
		}
		if in.oTenant != nil {
			b.add = append(b.add, fmt.Appendf(nil, `{"object":%s,"metadata":{"tenant":%q,"ts":%d}}`, raw, in.oTenant[i], i))
		} else {
			b.add = append(b.add, fmt.Appendf(nil, `{"object":%s}`, raw))
		}
	}
	return b, nil
}

// searches is the workload's search stream: op i is a pure function of i
// and the inputs; where the workload filters, every fourth search carries
// its query's tenant filter.
func searches[T any](in *inputs[T], b *bodies) func(int64) op {
	nq := int64(len(in.queries))
	return func(i int64) op {
		if in.qTenant != nil && i%4 == 3 {
			return searchOp(b.filtered[i%nq], in.qTenant[i%nq])
		}
		return searchOp(b.search[i%nq], "")
	}
}

// groundTruth is the exact k-NN of each probe query over the initial
// store, by brute force (restricted to the filter's tenant when the
// probe is filtered).
func groundTruth[T any](w spec[T], in *inputs[T], probes []probe, workers int) [][]uint64 {
	out := make([][]uint64, len(probes))
	var wg sync.WaitGroup
	next := make(chan int, len(probes))
	for i := range probes {
		next <- i
	}
	close(next)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			type cand struct {
				d  float64
				id uint64
			}
			for i := range next {
				pr := probes[i]
				var cs []cand
				for id, x := range in.db {
					if pr.tenant != "" && in.md[id]["tenant"] != pr.tenant {
						continue
					}
					cs = append(cs, cand{w.dist(in.queries[pr.query], x), uint64(id)})
				}
				sort.Slice(cs, func(a, b int) bool {
					if cs[a].d != cs[b].d {
						return cs[a].d < cs[b].d
					}
					return cs[a].id < cs[b].id
				})
				ids := make([]uint64, 0, w.k)
				for _, c := range cs[:min(w.k, len(cs))] {
					ids = append(ids, c.id)
				}
				out[i] = ids
			}
		}()
	}
	wg.Wait()
	return out
}

type probe struct {
	query  int
	tenant string // "" = unfiltered
}

// gateResult is what one pass of the probe set found.
type gateResult struct {
	probes     int
	mismatches int
	recall     float64
	dists      int // embed + refine distances over the HTTP probes
}

// gate sends every probe over HTTP, one at a time, and requires the
// answer to be bit-identical, IDs, distances and distance counts, to a
// direct search of the same backend. With truth, each returned distance
// must also equal the oracle's, and recall@k against the truth is
// measured. meter, when set, is on only while the HTTP probes run.
func gate[T any](w spec[T], in *inputs[T], x *instance[T], c *client, b *bodies, probes []probe, truth [][]uint64, m *meter) gateResult {
	g := gateResult{probes: len(probes)}
	type answer struct {
		resp searchResp
		ok   bool
	}
	answers := make([]answer, len(probes))
	if m != nil {
		m.on.Store(true)
	}
	for i, pr := range probes {
		o := searchOp(b.search[pr.query], "")
		if pr.tenant != "" {
			o = searchOp(b.filtered[pr.query], pr.tenant)
		}
		var s sample
		body := c.do(x.base, o, &s)
		answers[i].ok = s.ok && json.Unmarshal(body, &answers[i].resp) == nil
		g.dists += s.dists
	}
	if m != nil {
		m.on.Store(false)
	}
	var hits, want int
	for i, pr := range probes {
		a := answers[i]
		if !a.ok {
			g.mismatches++
			continue
		}
		q := in.queries[pr.query]
		var filter []byte
		if pr.tenant != "" {
			filter = fmt.Appendf(nil, `{"field":"tenant","eq":%q}`, pr.tenant)
		}
		pred, err := x.backend.Backend.CompileFilter(filter)
		if err != nil {
			g.mismatches++
			continue
		}
		res, st, err := x.backend.Backend.SearchFiltered(q, w.k, w.p, pred)
		same := err == nil && len(res) == len(a.resp.Results) &&
			st.EmbedDistances == a.resp.Stats.EmbedDistances && st.RefineDistances == a.resp.Stats.RefineDistances
		for j := 0; same && j < len(res); j++ {
			r := a.resp.Results[j]
			same = res[j].ID == r.ID && math.Float64bits(res[j].Distance) == math.Float64bits(r.Distance)
		}
		if truth != nil {
			for _, r := range a.resp.Results {
				if r.ID >= uint64(len(in.db)) || w.dist(q, in.db[r.ID]) != r.Distance {
					same = false
				}
			}
			in := map[uint64]bool{}
			for _, id := range truth[i] {
				in[id] = true
			}
			for _, r := range a.resp.Results {
				if in[r.ID] {
					hits++
				}
			}
			want += len(truth[i])
		}
		if !same {
			g.mismatches++
		}
	}
	if want > 0 {
		g.recall = float64(hits) / float64(want)
	}
	return g
}

// probeSet is the fixed probe set: the first queries of the pool, every
// other one filtered where the workload filters.
func probeSet[T any](w spec[T], in *inputs[T]) []probe {
	ps := make([]probe, w.probes)
	for i := range ps {
		ps[i].query = i
		if in.qTenant != nil && i%2 == 1 {
			ps[i].tenant = in.qTenant[i]
		}
	}
	return ps
}

// bundleBytes sums the sizes of the files making up the bundle.
func bundleBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}

// runner holds one run's state as it moves through its phases.
type runner[T any] struct {
	w      spec[T]
	rc     runConfig
	rep    *report
	tr     *tracer
	oracle *meter
	enc    *meter
	// xs are the served builds. in is their inputs: the seed fixes them,
	// so one copy serves every build.
	xs     []*instance[T]
	in     *inputs[T]
	c      *client
	b      *bodies
	search func(int64) op
	probes []probe
	// spans are the traced phases' spans, written out at the end.
	spans  []Span
	setups []setupTimes
}

// run executes one workload run and returns its report.
func run[T any](w spec[T], rc runConfig) (*report, error) {
	r := &runner[T]{w: w, rc: rc, rep: newReport(w.name, rc), tr: newTracer(), oracle: &meter{}, enc: &meter{}}
	defer r.closeAll()
	if err := r.setUp(); err != nil {
		return nil, err
	}
	var err error
	if r.b, err = encodeBodies(w, r.in); err != nil {
		return nil, err
	}
	r.search = searches(r.in, r.b)
	r.c = newClient(runtime.NumCPU(), w.k, r.tr)
	r.c.md = r.in.md
	defer r.c.close()

	r.firstGate()
	if !rc.trace {
		r.closedLoop(time.Duration(0.3 * rc.seconds * float64(time.Second)))
	}
	openDur := 0.6 * rc.seconds
	if rc.trace {
		openDur = 0.45 * rc.seconds
	}
	perBuild := max(int(w.rate*openDur/builds), 1)
	p50 := r.openLoop(perBuild)
	if rc.trace {
		r.tracedOpenLoop(perBuild, p50)
	}
	if err := r.footprint(); err != nil {
		return nil, err
	}
	r.writeMetrics(r.writeProbe())
	r.setupMetrics()
	r.finalGate()
	if rc.trace {
		if err := r.rep.writeSpans(rc.dir, r.spans); err != nil {
			return nil, err
		}
	}
	r.heap()
	r.rep.e2e("ok_ratio", 1-float64(r.rep.res.Failed)/float64(max(r.rep.res.Attempted, 1)), "ratio")
	return r.rep, nil
}

func (r *runner[T]) closeAll() {
	for _, x := range r.xs {
		x.close()
	}
	r.xs = nil
}

// setUp builds and serves the store `builds` times. In a traced run the
// codec's decodes are metered during set-up.
func (r *runner[T]) setUp() error {
	dec := &meter{}
	dist := meteredDist(r.oracle, r.w.dist)
	codec := meteredCodec[T]{inner: store.Gob[T](), enc: r.enc, dec: dec}
	dec.on.Store(r.rc.trace)
	defer dec.on.Store(false)
	for rep := range builds {
		dec.reset()
		x, in, st, err := setup(r.w, r.rc, rep, dist, codec, r.tr)
		if err != nil {
			return err
		}
		st.codecDecode = time.Duration(dec.nanos.Load())
		r.xs = append(r.xs, x)
		r.setups = append(r.setups, st)
		if r.in == nil {
			r.in = in
		}
	}
	return nil
}

// eachBuild runs f on every build in turn, dropping the client's idle
// connections after each, so no more than one build's connections are
// ever open.
func (r *runner[T]) eachBuild(f func(i int, x *instance[T])) {
	for i, x := range r.xs {
		f(i, x)
		r.c.close()
	}
}

// firstGate checks every fresh build: bit-identity with a direct search,
// exact distances, recall against brute force. In a traced run the
// probes also give the oracle's per-search cost: they go one request at
// a time, so every oracle call belongs to a probe.
func (r *runner[T]) firstGate() {
	r.probes = probeSet(r.w, r.in)
	truth := groundTruth(r.w, r.in, r.probes, runtime.NumCPU())
	r.tr.on.Store(r.rc.trace)
	r.oracle.reset()
	var probes, dists int
	var recall float64
	r.eachBuild(func(_ int, x *instance[T]) {
		g := gate(r.w, r.in, x, r.c, r.b, r.probes, truth, r.oracle)
		r.rep.gate(g, true)
		probes += g.probes
		dists += g.dists
		recall += g.recall / builds
	})
	r.tr.on.Store(false)
	r.tr.take() // the probes' spans are not load; the open loops' are
	if recall < minRecall {
		r.rep.fail(fmt.Sprintf("recall@%d %.3f below %.3f", r.w.k, recall, minRecall))
	}
	r.rep.e2e("recall_at_10", recall, "ratio")
	if r.rc.trace {
		calls, ns := r.oracle.calls.Load(), r.oracle.nanos.Load()
		if calls != int64(dists) {
			r.rep.fail(fmt.Sprintf("oracle calls %d over the probes, responses report %d distances", calls, dists))
		}
		r.rep.layer("oracle.calls_per_search", float64(calls)/float64(probes), "count")
		r.rep.layer("oracle.us_per_call", float64(ns)/1e3/float64(max(calls, 1)), "us")
		r.rep.layer("oracle.ms_per_search", float64(ns)/1e6/float64(probes), "ms")
	}
}

// openLoops runs n searches of the open loop on each build in turn. It
// returns every sample and the search latencies grouped into one-second
// windows by due time.
func (r *runner[T]) openLoops(n int) ([]sample, [][]float64) {
	var all []sample
	var windows [][]float64
	r.eachBuild(func(_ int, x *instance[T]) {
		ss := r.c.openLoop(x.base, n, r.w.rate, r.search)
		all = append(all, ss...)
		windows = append(windows, dueWindows(ss, time.Second)...)
	})
	return all, windows
}

// openLoop runs the untraced open loop: the latency figures, and the
// generator, allocation and GC figures of a traced run. It returns the
// search p50.
func (r *runner[T]) openLoop(n int) float64 {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	open, windows := r.openLoops(n)
	runtime.ReadMemStats(&ms1)
	r.rep.samples(open)
	lat := latenciesMs(open, func(s sample) bool { return s.kind == opSearch })
	p50, perWindow50 := medianOfQuantiles(windows, 0.5)
	p90, perWindow90 := medianOfQuantiles(windows, 0.9)
	p99, _ := quantile(lat, 0.99)
	r.rep.count("search_open", len(lat))
	r.rep.count("search_open_windows", len(perWindow90))
	r.rep.Windows["search_open_tail_ms"] = tail(lat)
	r.rep.Windows["search_p50_ms"] = perWindow50
	r.rep.Windows["search_p90_ms"] = perWindow90
	r.rep.e2e("search_p50_ms", p50, "ms")
	r.rep.layer("loadgen.search_p90_ms", p90, "ms")
	r.rep.layer("loadgen.search_p99_ms", p99, "ms")
	var dists, lags []float64
	for _, s := range open {
		if s.kind == opSearch && s.ok {
			dists = append(dists, float64(s.dists))
		}
		if !s.due.IsZero() {
			_, lag := dueLatency(s.due, s.sent, s.done)
			lags = append(lags, ms(lag))
		}
	}
	r.rep.e2e("dists_per_query", mean(dists), "count")
	lag99, _ := quantile(lags, 0.99)
	r.rep.layer("loadgen.lag_p99_ms", lag99, "ms")
	r.rep.layer("runtime.alloc_kb_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/float64(max(len(open), 1)), "KB")
	r.rep.layer("runtime.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6, "ms")
	return p50
}

// tracedOpenLoop runs the same schedule again with tracing on: the
// span-based per-layer figures.
func (r *runner[T]) tracedOpenLoop(n int, untracedP50 float64) {
	var fs0 []meta.TrackerStats
	for _, x := range r.xs {
		fs0 = append(fs0, x.backend.Backend.FilterStats())
	}
	r.tr.on.Store(true)
	traced, windows := r.openLoops(n)
	r.tr.on.Store(false)
	r.rep.samples(traced)
	p50, _ := medianOfQuantiles(windows, 0.5)
	r.rep.layer("trace.overhead_pct", 100*(p50-untracedP50)/untracedP50, "%")
	spans := r.tr.take()
	layerMetrics(r.rep, spans)
	r.spans = append(r.spans, spans...)
	var matched, scanned uint64
	for i, x := range r.xs {
		for f, v := range x.backend.Backend.FilterStats().Fields {
			matched += v.Matched - fs0[i].Fields[f].Matched
			scanned += v.Scanned - fs0[i].Fields[f].Scanned
		}
	}
	r.rep.layer("meta.selectivity", float64(matched)/float64(max(scanned, 1)), "ratio")
}

// footprint measures disk after the open loop, whose op count the seed
// fixes, so a faster commit does not grow its own store.
func (r *runner[T]) footprint() error {
	x := r.xs[0]
	if err := x.backend.Backend.Save(x.bundle); err != nil {
		r.rep.fail("save: " + err.Error())
	}
	n, err := bundleBytes(x.dir)
	if err != nil {
		return err
	}
	r.rep.e2e("disk_bytes_per_obj", float64(n)/float64(x.backend.Size()), "B")
	return nil
}

// finalGate checks every build once the whole run has been through it:
// each must still answer exactly as a direct search does. The write
// probe has left a delta segment and tombstones behind, so in a traced
// run this pass gives the delta-scan figures; no earlier search sees a
// delta.
func (r *runner[T]) finalGate() {
	r.tr.on.Store(r.rc.trace)
	r.eachBuild(func(_ int, x *instance[T]) {
		r.rep.gate(gate(r.w, r.in, x, r.c, r.b, r.probes, nil, nil), false)
	})
	r.tr.on.Store(false)
	if !r.rc.trace {
		return
	}
	spans := r.tr.take()
	r.spans = append(r.spans, spans...)
	var delta, share []float64
	for _, s := range spans {
		if s.Name == "store.search" && s.Stages != nil {
			delta = append(delta, nsToMs(s.Stages.FilterDeltaNanos))
		}
	}
	for _, x := range r.xs {
		share = append(share, x.backend.Backend.Stats().DeltaScanShare)
	}
	r.rep.count("delta_searches", len(delta))
	r.rep.layer("retrieval.filter_delta_ms", mean(delta), "ms")
	r.rep.layer("store.delta_scan_share", mean(share), "ratio")
}

// heap is the live heap of one served build at the end of the run: what
// a forced GC frees once every build's server and store is closed,
// divided by the builds. Everything the benchmark itself holds (inputs,
// request bodies, samples) is live in both readings and cancels out.
func (r *runner[T]) heap() {
	r.c.close()
	var with, without runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&with)
	r.closeAll()
	runtime.GC()
	runtime.ReadMemStats(&without)
	r.rep.e2e("heap_mb", (float64(with.HeapAlloc)-float64(without.HeapAlloc))/builds/(1<<20), "MB")
}

// closedLoop measures throughput as the median over one-second windows,
// a third of them on each build, so neither a burst of outside load nor
// one build's memory layout moves the figure.
func (r *runner[T]) closedLoop(d time.Duration) {
	slice := d / builds
	nwin := max(int(slice/time.Second), 1)
	var rates []float64
	var total int
	r.eachBuild(func(_ int, x *instance[T]) {
		closed, start := r.c.closedLoop(x.base, slice, r.search)
		r.rep.samples(closed)
		var done []time.Time
		for _, s := range closed {
			if s.kind == opSearch && s.ok {
				done = append(done, s.done)
			}
		}
		total += len(done)
		rates = append(rates, windowRates(start, slice/time.Duration(nwin), nwin, done)...)
	})
	r.rep.count("search_closed", total)
	r.rep.Windows["search_qps"] = rates
	qps, _ := quantile(rates, 0.5)
	r.rep.e2e("search_qps", qps, "1/s")
}

// writeProbe measures writes and saves after the searches, which so see
// a store the seed alone fixes. Each build takes an equal, contiguous
// share of the rounds. It saves between rounds of writes rather than
// beside them, so a write's latency is the write's alone.
func (r *runner[T]) writeProbe() [][]sample {
	r.tr.on.Store(r.rc.trace)
	r.enc.on.Store(r.rc.trace)
	r.enc.reset()
	b := r.b
	add := func(i int) op { return addOp(b.add[i%len(b.add)]) }
	upsert := func(i int) []byte { return b.add[(i+1)%len(b.add)] }
	perBuild := r.w.writeRounds / builds
	var rounds [][]sample
	r.eachBuild(func(i int, x *instance[T]) {
		for j := range perBuild {
			lo := (i*perBuild + j) * probeRound
			round := r.c.writeProbe(x.base, lo, lo+probeRound, add, upsert)
			s := sample{kind: opSave, sent: time.Now()}
			err := x.backend.Save(x.bundle)
			s.done, s.ok = time.Now(), err == nil
			round = append(round, s)
			r.rep.samples(round)
			rounds = append(rounds, round)
		}
	})
	r.tr.on.Store(false)
	r.enc.on.Store(false)
	if r.rc.trace {
		spans := r.tr.take()
		layerMetrics(r.rep, spans)
		r.spans = append(r.spans, spans...)
	}
	return rounds
}

// writeMetrics derives the write and save figures from the write
// probe's rounds, each a round of writes and the save after it.
func (r *runner[T]) writeMetrics(rounds [][]sample) {
	isWrite := func(s sample) bool { return s.kind.write() }
	var all []sample
	perRound := make([][]float64, len(rounds))
	for i, round := range rounds {
		all = append(all, round...)
		perRound[i] = latenciesMs(round, isWrite)
	}
	wl := latenciesMs(all, isWrite)
	sl := latenciesMs(all, func(s sample) bool { return s.kind == opSave })
	wp50, _ := medianOfQuantiles(perRound, 0.5)
	wp90, roundP90s := medianOfQuantiles(perRound, 0.9)
	wp99, _ := quantile(wl, 0.99)
	r.rep.count("writes", len(wl))
	r.rep.count("write_rounds", len(roundP90s))
	r.rep.Windows["write_tail_ms"] = tail(wl)
	r.rep.Windows["write_p90_ms"] = roundP90s
	r.rep.count("saves", len(sl))
	sp50, _ := quantile(sl, 0.5)
	r.rep.layer("loadgen.write_p50_ms", wp50, "ms")
	r.rep.layer("loadgen.write_p90_ms", wp90, "ms")
	r.rep.layer("loadgen.write_p99_ms", wp99, "ms")
	r.rep.e2e("save_p50_ms", sp50, "ms")
	if !r.rc.trace {
		return
	}
	var cms, sbs []float64
	var compactions uint64
	for _, x := range r.xs {
		ts := x.backend
		ts.mu.Lock()
		for _, v := range ts.compactNs {
			cms = append(cms, nsToMs(v))
		}
		for _, v := range ts.saveBytes {
			sbs = append(sbs, float64(v))
		}
		ts.mu.Unlock()
		compactions += ts.Backend.Stats().Compactions
	}
	sb50, _ := quantile(sbs, 0.5)
	r.rep.layer("store.compaction_ms", mean(cms), "ms")
	r.rep.layer("store.save_bytes", sb50, "B")
	r.rep.layer("codec.encode_us_per_obj", float64(r.enc.nanos.Load())/1e3/float64(max(r.enc.calls.Load(), 1)), "us")
	r.rep.layer("store.compactions", float64(compactions), "count")
}

func (r *runner[T]) setupMetrics() {
	med := func(f func(setupTimes) time.Duration) float64 {
		var v []float64
		for _, s := range r.setups {
			v = append(v, f(s).Seconds())
		}
		q, _ := quantile(v, 0.5)
		return q
	}
	r.rep.e2e("setup_s", med(func(s setupTimes) time.Duration { return s.total }), "s")
	r.rep.layer("core.train_s", med(func(s setupTimes) time.Duration { return s.train }), "s")
	r.rep.layer("store.build_s", med(func(s setupTimes) time.Duration { return s.build }), "s")
	r.rep.layer("store.open_s", med(func(s setupTimes) time.Duration { return s.open }), "s")
	r.rep.layer("codec.decode_s", med(func(s setupTimes) time.Duration { return s.codecDecode }), "s")
}

// tail is the p50, p90, p95, p99 and p99.9 of xs, kept in the result
// record to show the shape of a latency tail.
func tail(xs []float64) []float64 {
	var out []float64
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
		v, _ := quantile(xs, q)
		out = append(out, v)
	}
	return out
}

// dueWindows groups the open loop's search latencies into consecutive
// windows of the given width by due time.
func dueWindows(ss []sample, width time.Duration) [][]float64 {
	var start time.Time
	for _, s := range ss {
		if start.IsZero() || s.due.Before(start) {
			start = s.due
		}
	}
	var out [][]float64
	for _, s := range ss {
		if s.kind != opSearch || !s.ok {
			continue
		}
		i := int(s.due.Sub(start) / width)
		for len(out) <= i {
			out = append(out, nil)
		}
		out[i] = append(out[i], ms(s.latency()))
	}
	return out
}

func latenciesMs(ss []sample, keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range ss {
		if keep(s) && s.ok {
			out = append(out, ms(s.latency()))
		}
	}
	return out
}

// layerMetrics derives the span-based per-layer metrics. Each request's
// spans form a chain: the client's span (loadgen), the handler
// (server), the decode inside it (server), the store call (store), with
// the store's own reported stage times on the store span.
func layerMetrics(rep *report, spans []Span) {
	var (
		handler, self, decode, netOv, storeLat, storeSelf, resp []float64
		embed, base, merge, refine, eval                        []float64
		add, upsert, remove                                     []float64
	)
	for _, tt := range groupTraces(spans) {
		root := tt.spans[0]
		for _, s := range tt.spans {
			if s.Parent == 0 {
				root = s
			}
			switch s.Name {
			case "store.add":
				add = append(add, nsToMs(s.dur()))
			case "store.upsert":
				upsert = append(upsert, nsToMs(s.dur()))
			case "store.remove":
				remove = append(remove, nsToMs(s.dur()))
			}
		}
		if root.Name != "loadgen.search" && root.Name != "loadgen.search_filtered" {
			continue
		}
		h, ok1 := tt.find("server.handler")
		s, ok2 := tt.find("store.search")
		if !ok1 || !ok2 || s.Stages == nil {
			continue
		}
		handler = append(handler, nsToMs(h.dur()))
		self = append(self, nsToMs(selfTime(h, tt.children[h.ID])))
		if d, ok := tt.find("server.decode"); ok {
			decode = append(decode, float64(d.dur())/1e3)
		}
		netOv = append(netOv, nsToMs(selfTime(root, tt.children[root.ID])))
		resp = append(resp, float64(root.Bytes))
		storeLat = append(storeLat, nsToMs(s.dur()))
		t := s.Stages
		storeSelf = append(storeSelf, nsToMs(s.dur()-t.TotalNanos()))
		embed = append(embed, nsToMs(t.EmbedNanos))
		base = append(base, nsToMs(t.FilterBaseNanos))
		merge = append(merge, nsToMs(t.MergeNanos))
		refine = append(refine, nsToMs(t.RefineNanos))
		if root.Name == "loadgen.search_filtered" {
			eval = append(eval, nsToMs(t.FilterEvalNanos))
		}
	}
	med := func(xs []float64) float64 { v, _ := quantile(xs, 0.5); return v }
	if len(handler) > 0 {
		p99, _ := quantile(storeLat, 0.99)
		rep.count("traced_searches", len(handler))
		rep.layer("server.handler_p50_ms", med(handler), "ms")
		rep.layer("server.self_p50_ms", med(self), "ms")
		rep.layer("server.decode_us", med(decode), "us")
		rep.layer("server.resp_bytes", mean(resp), "B")
		rep.layer("net.overhead_p50_ms", med(netOv), "ms")
		rep.layer("store.search_p50_ms", med(storeLat), "ms")
		rep.layer("store.search_p99_ms", p99, "ms")
		rep.layer("store.self_p50_ms", med(storeSelf), "ms")
		rep.layer("core.embed_ms", mean(embed), "ms")
		rep.layer("retrieval.filter_base_ms", mean(base), "ms")
		rep.layer("retrieval.merge_ms", mean(merge), "ms")
		rep.layer("retrieval.refine_ms", mean(refine), "ms")
		rep.layer("meta.eval_ms", mean(eval), "ms")
	}
	if len(add) > 0 {
		rep.layer("store.add_p50_ms", med(add), "ms")
		rep.layer("store.upsert_p50_ms", med(upsert), "ms")
		rep.layer("store.remove_p50_ms", med(remove), "ms")
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig) (*report, error){
	"vec-search":    func(rc runConfig) (*report, error) { return run(vecSearch(), rc) },
	"series-search": func(rc runConfig) (*report, error) { return run(seriesSearch(), rc) },
}
