package main

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"temporalrank"
)

// refSeries is the checker's own copy of one object: its vertices and
// the trapezoid prefix sums over them. It shares no code with the
// program's tsdata package, so a fault there cannot hide in the
// reference.
type refSeries struct {
	t, v []float64
	pre  []float64 // pre[j] = ∫ from t[0] to t[j]
}

func newRefSeries(t, v []float64) refSeries {
	s := refSeries{t: slices.Clone(t), v: slices.Clone(v), pre: make([]float64, len(t))}
	for j := 1; j < len(t); j++ {
		s.pre[j] = s.pre[j-1] + (t[j]-t[j-1])*(v[j]+v[j-1])/2
	}
	return s
}

// push appends one acknowledged vertex.
func (s *refSeries) push(t, v float64) {
	n := len(s.t)
	s.pre = append(s.pre, s.pre[n-1]+(t-s.t[n-1])*(v+s.v[n-1])/2)
	s.t = append(s.t, t)
	s.v = append(s.v, v)
}

// interp is g(x) on segment j.
func (s *refSeries) interp(x float64, j int) float64 {
	return s.v[j] + (s.v[j+1]-s.v[j])*(x-s.t[j])/(s.t[j+1]-s.t[j])
}

// trap is the trapezoid ∫ from a to b inside segment j.
func (s *refSeries) trap(a, b float64, j int) float64 {
	return (b - a) * (s.interp(a, j) + s.interp(b, j)) / 2
}

// sigma is σ(t1,t2) over the first n vertices; the function is 0
// outside its domain. The partial segments at either end are
// integrated directly, not as a difference of prefix sums, so a
// window that clips a sliver of one segment keeps full precision.
func (s *refSeries) sigma(t1, t2 float64, n int) float64 {
	t1 = math.Max(t1, s.t[0])
	t2 = math.Min(t2, s.t[n-1])
	if t2 <= t1 {
		return 0
	}
	jL := sort.SearchFloat64s(s.t[:n], t1) // first vertex with t >= t1
	if s.t[jL] > t1 {
		jL--
	}
	jR := sort.SearchFloat64s(s.t[:n], t2) - 1 // segment [t[jR], t[jR+1]] holds t2
	if jL == jR {
		return s.trap(t1, t2, jL)
	}
	return s.trap(t1, s.t[jL+1], jL) + (s.pre[jR] - s.pre[jL+1]) + s.trap(s.t[jR], t2, jR)
}

// at is g(t) over the first n vertices.
func (s *refSeries) at(t float64, n int) float64 {
	if t < s.t[0] || t > s.t[n-1] {
		return 0
	}
	j := sort.SearchFloat64s(s.t[:n], t)
	if s.t[j] == t {
		return s.v[j]
	}
	j--
	return s.v[j] + (s.v[j+1]-s.v[j])*(t-s.t[j])/(s.t[j+1]-s.t[j])
}

// reference integrates every object itself and judges answers.
type reference struct {
	s     []refSeries
	alpha float64 // APPX2's α = 2·log₂(r+1) for breakpoint budget r
}

func newReference(inputs []temporalrank.SeriesInput, targetR int) *reference {
	r := &reference{s: make([]refSeries, len(inputs)), alpha: 2 * math.Log2(float64(targetR)+1)}
	for i, in := range inputs {
		r.s[i] = newRefSeries(in.Times, in.Values)
	}
	return r
}

func (r *reference) push(id int, t, v float64) { r.s[id].push(t, v) }

// mass is M = Σ_i ∫|g_i| over the whole domain (the data is positive).
func (r *reference) mass() float64 {
	var m float64
	for i := range r.s {
		m += math.Abs(r.s[i].pre[len(r.s[i].pre)-1])
	}
	return m
}

// scores returns every object's true score for q. n, when non-nil,
// limits object i to its first n[i] vertices (a prefix of the appends).
func (r *reference) scores(q temporalrank.Query, n []int) []float64 {
	out := make([]float64, len(r.s))
	for i := range r.s {
		ni := len(r.s[i].t)
		if n != nil {
			ni = n[i]
		}
		switch q.Agg {
		case temporalrank.AggInstant:
			out[i] = r.s[i].at(q.T1, ni)
		case temporalrank.AggAvg:
			out[i] = r.s[i].sigma(q.T1, q.T2, ni) / (q.T2 - q.T1)
		default:
			out[i] = r.s[i].sigma(q.T1, q.T2, ni)
		}
	}
	return out
}

// answer is what the checker needs of a response.
type answer struct {
	Results []temporalrank.Result
	Exact   bool
	Epsilon float64
}

func fromAnswer(a temporalrank.Answer) answer {
	return answer{Results: a.Results, Exact: a.Exact, Epsilon: a.Epsilon}
}

// relClose is the exact answers' tolerance: scores agree within 1e-9
// relative or within abs (see truth.abs).
func relClose(a, b, abs float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))+abs
}

// truth is the reference's verdict material for one query: every
// object's true score, the same sorted best first, and the mass M.
//
// abs is the absolute slack of an exact score. The program's exact
// methods take σ(t1,t2) as a difference of prefix sums that run from
// the object's first vertex, so an exact score carries a rounding
// error of a few ulps of the object's whole integral, not of σ: on a
// window that clips a sliver of one segment that is more than 1e-9 of
// σ. abs is 1e-14 of the largest object integral (about 45 ulps of
// it; per unit of time for avg), and 1e-12 for instant values.
type truth struct {
	scores, top []float64
	mass, abs   float64
}

// truth computes the verdict material for q (see scores for n).
func (r *reference) truth(q temporalrank.Query, n []int) truth {
	s := r.scores(q, n)
	top := slices.Clone(s)
	slices.SortFunc(top, func(a, b float64) int { return -cmpFloat(a, b) })
	abs := 1e-12
	if q.Agg != temporalrank.AggInstant {
		var big float64
		for i := range r.s {
			ni := len(r.s[i].t)
			if n != nil {
				ni = n[i]
			}
			big = math.Max(big, math.Abs(r.s[i].pre[ni-1]))
		}
		if q.Agg == temporalrank.AggAvg {
			big /= q.T2 - q.T1
		}
		abs = math.Max(abs, 1e-14*big)
	}
	return truth{scores: s, top: top[:min(q.K, len(top))], mass: r.mass(), abs: abs}
}

// check judges ans against the true scores of q. Exact answers must
// return min(k, m) distinct objects whose reported scores match the
// true ranking rank by rank, and whose true scores match it too (so
// ids of equal score may swap). Approximate answers return distinct
// objects, at most min(k, m) of them, and must meet the per-rank (ε,α)
// bound σ_r/α − εM ≤ σ̃_r ≤ σ_r + εM, a rank left out counting as
// σ̃_r = 0 (the repository's own (ε,α) tests accept short answers too).
func (r *reference) check(q temporalrank.Query, ans answer, tr truth) error {
	scores, top, mass := tr.scores, tr.top, tr.mass
	m := len(scores)
	want := min(q.K, m)
	exact := ans.Exact || q.Agg == temporalrank.AggInstant
	if len(ans.Results) > want || exact && len(ans.Results) != want {
		return fmt.Errorf("%v: %d results, want %d", q, len(ans.Results), want)
	}
	seen := make(map[int]bool, want)
	for _, res := range ans.Results {
		if res.ID < 0 || res.ID >= m || seen[res.ID] {
			return fmt.Errorf("%v: bad or repeated id %d", q, res.ID)
		}
		seen[res.ID] = true
	}
	if exact {
		for rank, res := range ans.Results {
			if !relClose(res.Score, top[rank], tr.abs) {
				return fmt.Errorf("%v rank %d: score %.17g, want %.17g", q, rank, res.Score, top[rank])
			}
			if !relClose(scores[res.ID], top[rank], tr.abs) {
				return fmt.Errorf("%v rank %d: id %d has true score %.17g, rank holds %.17g", q, rank, res.ID, scores[res.ID], top[rank])
			}
		}
		return nil
	}
	w := 1.0
	if q.Agg == temporalrank.AggAvg {
		w = q.T2 - q.T1
	}
	slack := ans.Epsilon*mass*(1+1e-7) + 1e-9
	for rank := 0; rank < want; rank++ {
		var got float64
		if rank < len(ans.Results) {
			got = ans.Results[rank].Score * w
		}
		sigma := top[rank] * w
		if got > sigma+slack || got < sigma/r.alpha-slack {
			return fmt.Errorf("%v rank %d: approximate score %.17g outside [%g, %g] (ε=%g M=%g)",
				q, rank, got, sigma/r.alpha-slack, sigma+slack, ans.Epsilon, mass)
		}
	}
	return nil
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}
