package core

import (
	"fmt"

	"qse/internal/embed"
	"qse/internal/metrics"
	"qse/internal/space"
)

// Rule is one committed weak classifier α_j · Q̃_{F'_j, V_j}: a 1D
// embedding, a splitter interval V_j = [Lo, Hi], and the AdaBoost weight.
// In QI mode the interval is (-inf, +inf), so the splitter always accepts.
type Rule struct {
	Def    embed.Def
	Lo, Hi float64
	Alpha  float64
}

// Accepts reports whether the rule's splitter S_{F,V} accepts a query with
// embedding value fq under this rule's 1D embedding (Eq. 4).
func (r Rule) Accepts(fq float64) bool { return fq >= r.Lo && fq <= r.Hi }

// Model is the training output of Sec. 5.4: the embedding F_out (the unique
// 1D embeddings among the rules, in order of first appearance) plus
// everything needed to evaluate the query-sensitive distance D_out.
//
// The same Model type serves both modes: in QI mode every rule interval is
// infinite, so QueryWeights returns the same (global) weight vector for
// every query — the original BoostMap's weighted L1.
type Model[T any] struct {
	Mode  Mode
	Rules []Rule
	// Coords are the unique 1D embeddings: coordinate i of F_out is
	// Coords[i]. Uniqueness is by (Kind, A, B); scales are deterministic
	// per definition, so equal definitions have equal scales.
	Coords []embed.Def
	// RuleCoord[j] is the coordinate index of Rules[j].Def.
	RuleCoord []int

	candidates []T
	dist       space.Distance[T]
	// candIdx records which database indexes the candidates came from
	// (training provenance, needed for snapshots). Nil for hand-assembled
	// models.
	candIdx []int
}

type coordKey struct {
	kind embed.Kind
	a, b int
}

func keyOf(d embed.Def) coordKey {
	k := coordKey{kind: d.Kind, a: d.A}
	if d.Kind == embed.KindPivot {
		k.b = d.B
	} else {
		k.b = -1
	}
	return k
}

// newModel assembles a Model from committed rules.
func newModel[T any](mode Mode, rules []Rule, candidates []T, dist space.Distance[T]) *Model[T] {
	m := &Model[T]{
		Mode:       mode,
		Rules:      rules,
		candidates: candidates,
		dist:       dist,
		RuleCoord:  make([]int, len(rules)),
	}
	index := make(map[coordKey]int)
	for j, r := range rules {
		k := keyOf(r.Def)
		ci, ok := index[k]
		if !ok {
			ci = len(m.Coords)
			index[k] = ci
			m.Coords = append(m.Coords, r.Def)
		}
		m.RuleCoord[j] = ci
	}
	return m
}

// Dims returns d, the dimensionality of F_out.
func (m *Model[T]) Dims() int { return len(m.Coords) }

// EmbedCost returns the number of exact distance computations needed to
// embed one query: the number of distinct candidate objects referenced by
// the coordinates (Sec. 7).
func (m *Model[T]) EmbedCost() int { return embed.Cost(m.Coords) }

// Candidates returns the candidate objects the model's 1D embeddings
// reference. The slice is the model's own; callers must not modify it.
func (m *Model[T]) Candidates() []T { return m.candidates }

// Embed computes F_out(x), calling the exact distance oracle EmbedCost()
// times.
func (m *Model[T]) Embed(x T) []float64 {
	set := &embed.Set[T]{Candidates: m.candidates, Dist: m.dist}
	return set.EmbedAll(m.Coords, x)
}

// QueryWeights computes the per-coordinate weights A_i(q) of Eq. 10 from
// the query's embedding vector: for every rule whose splitter accepts the
// query, the rule's α accrues to its coordinate. If no rule accepts the
// query (possible only in QS mode, for queries far outside the training
// distribution), uniform weights are returned so the filter step still
// ranks candidates rather than returning garbage ties; this fallback is a
// robustness choice documented in DESIGN.md.
func (m *Model[T]) QueryWeights(qvec []float64) []float64 {
	if len(qvec) != len(m.Coords) {
		panic(fmt.Sprintf("core: query vector has %d dims, model has %d", len(qvec), len(m.Coords)))
	}
	w := make([]float64, len(m.Coords))
	any := false
	for j, r := range m.Rules {
		ci := m.RuleCoord[j]
		if r.Accepts(qvec[ci]) {
			w[ci] += r.Alpha
			any = true
		}
	}
	if !any {
		for i := range w {
			w[i] = 1
		}
	}
	return w
}

// Distance evaluates D_out (Eq. 11) between an embedded query (vector plus
// its query-sensitive weights) and an embedded database object:
// sum_i A_i(q) |q_i - x_i|. It is asymmetric by design: the weights belong
// to the query. The sum is metrics.WeightedL1Unchecked, whose products
// are rounded before they are added, so no architecture fuses them.
func Distance(qvec, qweights, xvec []float64) float64 {
	if len(qvec) != len(xvec) || len(qvec) != len(qweights) {
		panic(fmt.Sprintf("core: dimension mismatch %d/%d/%d", len(qvec), len(qweights), len(xvec)))
	}
	return metrics.WeightedL1Unchecked(qweights, qvec, xvec)
}

// ClassifierH evaluates the boosted classifier H (Eq. 9) on a triple given
// the embedding vectors of q, a and b:
// H(q,a,b) = Σ_j α_j S_{F'_j,V_j}(q) F̃'_j(q,a,b). By Proposition 1 this
// equals D_out(F(q),F(b)) − D_out(F(q),F(a)).
func (m *Model[T]) ClassifierH(qvec, avec, bvec []float64) float64 {
	var h float64
	for j, r := range m.Rules {
		ci := m.RuleCoord[j]
		if !r.Accepts(qvec[ci]) {
			continue
		}
		h += r.Alpha * embed.Classify(qvec[ci], avec[ci], bvec[ci])
	}
	return h
}

// Prefix returns a model consisting of the first n rules. Because
// coordinates are ordered by first appearance, the prefix's coordinate
// list is exactly a prefix of the full model's: Prefix(n).Coords ==
// m.Coords[:Prefix(n).Dims()]. The evaluation harness exploits this to
// embed the database once with the full model and reuse vector prefixes
// for every dimensionality (the paper sweeps d from 1 to 600).
func (m *Model[T]) Prefix(n int) *Model[T] {
	if n < 0 || n > len(m.Rules) {
		panic(fmt.Sprintf("core: prefix %d out of range [0,%d]", n, len(m.Rules)))
	}
	p := newModel(m.Mode, m.Rules[:n], m.candidates, m.dist)
	p.candIdx = m.candIdx
	return p
}

// DimsAfter returns, for every rule count 0..len(Rules), the embedding
// dimensionality of that prefix. It is non-decreasing; DimsAfter()[n] ==
// Prefix(n).Dims().
func (m *Model[T]) DimsAfter() []int {
	out := make([]int, len(m.Rules)+1)
	seen := make(map[coordKey]struct{})
	for j, r := range m.Rules {
		seen[keyOf(r.Def)] = struct{}{}
		out[j+1] = len(seen)
	}
	return out
}

// PrefixForDims returns the shortest rule prefix whose embedding has
// exactly d dimensions, or false if no prefix reaches d (d larger than
// Dims()). d must be positive.
func (m *Model[T]) PrefixForDims(d int) (*Model[T], bool) {
	if d <= 0 {
		panic(fmt.Sprintf("core: PrefixForDims(%d)", d))
	}
	dims := m.DimsAfter()
	for n, dd := range dims {
		if dd == d {
			// Extend the prefix while additional rules reuse existing
			// coordinates: they add accuracy at zero extra embedding cost.
			for n+1 < len(dims) && dims[n+1] == d {
				n++
			}
			return m.Prefix(n), true
		}
	}
	return nil, false
}
