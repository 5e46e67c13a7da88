package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"qse"
	"qse/internal/datasets"
	"qse/internal/dtw"
	"qse/internal/metrics"
)

// spec defines one workload. Its open-loop rate is fixed here and never
// derived at run time, so both commits of a comparison see the same
// offered load. The rates sit at 40–45% of the closed-loop search_qps
// measured on a 2-vCPU Xeon when the benchmark was defined (one client,
// so about half the rate one request at a time allows), which leaves
// the two open-loop workers little queueing to amplify a slow spell of
// a shared machine.
type spec[T any] struct {
	name string
	k, p int
	// rate is the open-loop schedule in operations per second.
	rate float64
	// writeRounds is the write probe's size in rounds of probeRound
	// add/upsert/remove triples, a multiple of builds. Each build's
	// share is sized to cross the default compaction threshold once and
	// leave a delta behind for the final gate.
	writeRounds int
	train       qse.TrainConfig
	dist        func(a, b T) float64
	// decode is the server's query/object decoder, as a serving binary
	// would write it: parse, then validate the shape the distance needs.
	decode func(json.RawMessage) (T, error)
	gen    func(seed int64) (*inputs[T], error)
	// probes is the size of the fixed correctness probe set.
	probes int
}

// inputs are everything a workload generates from its seed.
type inputs[T any] struct {
	db []T
	// md is each db object's metadata (nil: the store carries none).
	md []map[string]any
	// queries is the query pool; qTenant[i] is the tenant a filtered
	// search with query i asks for (nil: no filtered searches).
	queries []T
	qTenant []string
	// objects feed adds and upserts; oTenant is each one's tenant.
	objects []T
	oTenant []string
}

const vecDims = 16

// vecSearch: 20k clustered 16-d vectors under L1, one shard, read-only.
// Its job is to stress the filter layer: the filter scan is most of a
// search, the exact block (20k rows of the ~64-d embedding, ~10 MB) is
// larger than L2, HTTP decode and encode are a visible share, and the
// oracle is nearly free. Every object carries a tenant and every fourth
// search a ~10% tenant filter, so predicate evaluation (the meta layer)
// is measured too.
func vecSearch() spec[[]float64] {
	return spec[[]float64]{
		name: "vec-search", k: 10, p: 200, rate: 220, writeRounds: 300,
		train:  vecTrainConfig(),
		dist:   metrics.L1,
		decode: decodeVec,
		gen: func(seed int64) (*inputs[[]float64], error) {
			return vecInputs(seed, 20000, 1024, 512), nil
		},
		probes: 200,
	}
}

// seriesSearch: about 2k length-128 series under constrained DTW with
// the serving binary's training configuration, one shard, read-only.
// This is the paper's regime: the exact distance dominates a search
// (embedding and refine), the filter scan over a ~256 KB block that fits
// in L2 is a small share, so a filter-scan or HTTP optimisation must
// show no change here.
func seriesSearch() spec[dtw.Series] {
	cfg := qse.DefaultTrainConfig()
	cfg.Rounds, cfg.Triples, cfg.Candidates, cfg.TrainingPool, cfg.K1 = 16, 2000, 60, 120, 5
	return spec[dtw.Series]{
		name: "series-search", k: 10, p: 100, rate: 65, writeRounds: 126,
		train:  cfg,
		dist:   func(a, b dtw.Series) float64 { return dtw.Constrained(a, b, 0.10) },
		decode: decodeSeries,
		gen: func(seed int64) (*inputs[dtw.Series], error) {
			const n, nq, no = 2000, 256, 128
			all, _, err := datasets.Series(n+nq+no, seed)
			if err != nil {
				return nil, err
			}
			return &inputs[dtw.Series]{db: all[:n], queries: all[n : n+nq], objects: all[n+nq:]}, nil
		},
		probes: 50,
	}
}

// vecTrainConfig trains a 64-round (about 64-d) embedding on a smaller
// training set than the library default, which keeps set-up to seconds
// while training still dominates it.
func vecTrainConfig() qse.TrainConfig {
	cfg := qse.DefaultTrainConfig()
	cfg.Rounds, cfg.Triples, cfg.Candidates, cfg.TrainingPool, cfg.EmbeddingsPerRound = 64, 2000, 100, 200, 40
	return cfg
}

// vecInputs draws n database vectors, nq queries and no write objects
// from one mixture of 64 Gaussian clusters. Every object gets a tenant
// out of ten, independent of its cluster, so a tenant filter selects
// about 10%.
func vecInputs(seed int64, n, nq, no int) *inputs[[]float64] {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float64, 64)
	for i := range centers {
		centers[i] = make([]float64, vecDims)
		for d := range centers[i] {
			centers[i][d] = rng.Float64()
		}
	}
	draw := func(m int) [][]float64 {
		out := make([][]float64, m)
		for i := range out {
			c := centers[rng.Intn(len(centers))]
			v := make([]float64, vecDims)
			for d := range v {
				v[d] = c[d] + rng.NormFloat64()*0.08
			}
			out[i] = v
		}
		return out
	}
	tenants := func(m int) []string {
		out := make([]string, m)
		for i := range out {
			out[i] = fmt.Sprintf("t%d", rng.Intn(10))
		}
		return out
	}
	in := &inputs[[]float64]{db: draw(n), queries: draw(nq), objects: draw(no)}
	in.md = make([]map[string]any, n)
	for i, t := range tenants(n) {
		in.md[i] = map[string]any{"tenant": t, "ts": int64(i)}
	}
	in.qTenant, in.oTenant = tenants(nq), tenants(no)
	return in
}

func decodeVec(raw json.RawMessage) ([]float64, error) {
	var v []float64
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, err
	}
	if len(v) != vecDims {
		return nil, fmt.Errorf("want %d-dimensional vectors, got %d", vecDims, len(v))
	}
	return v, nil
}

// decodeSeries mirrors the serving binary's decoder: cDTW needs every
// sample to have the stored data's dimensionality.
func decodeSeries(raw json.RawMessage) (dtw.Series, error) {
	var s dtw.Series
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Dims() != 2 {
		return nil, fmt.Errorf("series samples have %d dims, this index requires 2", s.Dims())
	}
	return s, nil
}
