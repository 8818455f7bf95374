package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"temporalrank"
	"temporalrank/internal/blockio"
	"temporalrank/internal/breakpoint"
	"temporalrank/internal/core"
	"temporalrank/internal/exact"
	"temporalrank/internal/gen"
	"temporalrank/internal/tsdata"
)

// paper-topk sizes. m stays at 2000 because the APPX2 build's ε
// bisection stalls on Temp data from m ≈ 2600 (see README.md).
const (
	paperM           = 2000
	paperNavg        = 100
	paperTargetR     = 500
	paperCacheBlocks = 256 // 1 MiB of 4 KiB pages, far below either index
	paperQueries     = 1000
	paperAppends     = 2000 // one per object, after the measured loop
	paperSetups      = 3
)

// tempInputs generates the Temp workload and copies its vertices out
// as program input; the reference checker integrates the same copies.
func tempInputs(m, navg int, seed int64) (*tsdata.Dataset, []temporalrank.SeriesInput, error) {
	ds, err := gen.Temp(gen.TempConfig{M: m, Navg: navg, Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	in := make([]temporalrank.SeriesInput, ds.NumSeries())
	for i, s := range ds.AllSeries() {
		n := s.NumSegments() + 1
		in[i] = temporalrank.SeriesInput{Times: make([]float64, n), Values: make([]float64, n)}
		for j := 0; j < n; j++ {
			in[i].Times[j] = s.VertexTime(j)
			in[i].Values[j] = s.VertexValue(j)
		}
	}
	return ds, in, nil
}

func scaled(n int, scale float64, floor int) int {
	return max(floor, int(math.Round(float64(n)*scale)))
}

// strata returns (i+½)/n for i < n in an order drawn from rng: n
// values spread evenly over (0, 1). Drawing a list's widths and k from
// strata gives every seed the same make-up of queries; the seed only
// pairs and places them. Averages over the list then move with the
// program, not with the luck of the draw.
func strata(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i, j := range rng.Perm(n) {
		out[i] = (float64(j) + 0.5) / float64(n)
	}
	return out
}

// paperQuery is one entry of the fixed query list.
type paperQuery struct {
	q        temporalrank.Query
	frontier bool // window ends at the data's last vertex
}

// paperQueryList draws the fixed list: 60% exact (34% sum, 20% avg, 6%
// sum windows ending at the data's last vertex), 20% ε-tolerant sum
// and avg (routed to APPX2) and 20% instant; interval fractions
// log-spread over [1%, 50%]; k spread over [10, 50]. The exact share
// keeps the p50 and p90 among the exact queries, away from the gap
// between them and the faster approximate and instant queries.
func paperQueryList(rng *rand.Rand, n int, start, end float64) []paperQuery {
	span := end - start
	ks, fracs, kinds := strata(rng, n), strata(rng, n), strata(rng, n)
	out := make([]paperQuery, n)
	for i := range out {
		k := 10 + int(ks[i]*41)
		w := 0.01 * math.Pow(50, fracs[i]) * span
		t1 := start + rng.Float64()*(span-w)
		var pq paperQuery
		switch u := kinds[i]; {
		case u < 0.2:
			pq.q = temporalrank.InstantQuery(k, start+rng.Float64()*span)
		case u < 0.3:
			pq.q = temporalrank.SumQuery(k, t1, t1+w)
			pq.q.MaxEpsilon = 1
		case u < 0.4:
			pq.q = temporalrank.AvgQuery(k, t1, t1+w)
			pq.q.MaxEpsilon = 1
		case u < 0.46:
			pq.q, pq.frontier = temporalrank.SumQuery(k, end-w, end), true
		case u < 0.8:
			pq.q = temporalrank.SumQuery(k, t1, t1+w)
		default:
			pq.q = temporalrank.AvgQuery(k, t1, t1+w)
		}
		out[i] = pq
	}
	return out
}

// paperStack is one set-up: the DB, both indexes and the planner.
type paperStack struct {
	exact3, appx2  *temporalrank.Index
	planner        *temporalrank.Planner
	exactS, approx time.Duration
}

func buildPaperStack(in []temporalrank.SeriesInput, cacheBlocks int) (*paperStack, error) {
	db, err := temporalrank.NewDB(in)
	if err != nil {
		return nil, err
	}
	st := &paperStack{}
	t0 := time.Now()
	if st.exact3, err = db.BuildIndex(temporalrank.Options{Method: temporalrank.MethodExact3, CacheBlocks: cacheBlocks}); err != nil {
		return nil, err
	}
	t1 := time.Now()
	if st.appx2, err = db.BuildIndex(temporalrank.Options{Method: temporalrank.MethodAppx2, CacheBlocks: cacheBlocks, TargetR: paperTargetR}); err != nil {
		return nil, err
	}
	t2 := time.Now()
	st.exactS, st.approx = t1.Sub(t0), t2.Sub(t1)
	st.planner, err = temporalrank.NewPlanner(db, st.exact3, st.appx2)
	return st, err
}

func runPaperTopK(cfg config, rep *report) error {
	m := scaled(paperM, cfg.Scale, 40)
	navg := scaled(paperNavg, cfg.Scale, 10)
	nq := scaled(paperQueries, cfg.Scale, 40)
	cacheBlocks := scaled(paperCacheBlocks, cfg.Scale, 2)
	ds, in, err := tempInputs(m, navg, cfg.Seed)
	if err != nil {
		return err
	}
	ref := newReference(in, paperTargetR)
	qs := paperQueryList(rand.New(rand.NewSource(cfg.Seed^0x5eed)), nq, ds.Start(), ds.End())

	setups := paperSetups
	if cfg.Trace {
		setups = 1
	}
	var (
		st     *paperStack
		setupS []float64
	)
	// Set-up time and append cost both depend on the data: the APPX2
	// build's ε bisection takes a data-dependent number of probes, and
	// an in-place append re-sweeps APPX2's breakpoints back to the last
	// one before it. The earlier set-ups therefore build on datasets of
	// their own, drawn from the seed, and each then takes one append
	// batch (nothing else uses those stacks). The last set-up builds
	// the run's data, whose batch follows the measured loop. setup_s is
	// the median set-up, append_p50_us the p50 of all batches.
	var appendLat lat
	nAppends := scaled(paperAppends, cfg.Scale, 40)
	for i := setups - 1; i >= 0; i-- {
		data, seed := in, cfg.Seed+int64(i)*7919
		if i > 0 {
			if _, data, err = tempInputs(m, navg, seed); err != nil {
				return err
			}
		}
		st = nil
		runtime.GC()
		t0 := time.Now()
		if st, err = buildPaperStack(data, cacheBlocks); err != nil {
			return err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if i > 0 {
			if err := paperAppendBatch(st.planner, data, nAppends, seed, &appendLat, rep); err != nil {
				return err
			}
		}
	}
	indexMB := float64(st.exact3.Stats().Bytes+st.appx2.Stats().Bytes) / (1 << 20)

	truths := make([]truth, len(qs))
	for i, pq := range qs {
		truths[i] = ref.truth(pq.q, nil)
	}
	checkRound := func(answers []answer, errs []error) {
		for i, a := range answers {
			op := "query"
			if errs[i] != nil {
				rep.count(op, true)
				rep.reject(op, errs[i])
				continue
			}
			err := ref.check(qs[i].q, a, truths[i])
			rep.count(op, err != nil)
			if err != nil {
				rep.reject(op, err)
			}
		}
	}

	if cfg.Trace {
		return tracePaperTopK(cfg, rep, ds, st, qs, cacheBlocks, checkRound)
	}

	ctx := context.Background()
	answers := make([]answer, len(qs))
	errs := make([]error, len(qs))
	// One untimed round fills the buffer pools.
	for i, pq := range qs {
		a, err := st.planner.Run(ctx, pq.q)
		answers[i], errs[i] = fromAnswer(a), err
	}
	checkRound(answers, errs)

	// The measured loop: whole rounds of the query list, read-only, so
	// every round meets the same data. The clock stops while a round's
	// answers are checked; busy is the measured time.
	var (
		all, front timed
		ios        uint64
		busy       time.Duration
	)
	for busy < cfg.Duration {
		roundStart := time.Now()
		for i, pq := range qs {
			t0 := time.Now()
			a, err := st.planner.Run(ctx, pq.q)
			d := time.Since(t0)
			at := busy + t0.Sub(roundStart)
			all.add(at, d)
			if pq.frontier {
				front.add(at, d)
			}
			ios += a.IOs
			answers[i], errs[i] = fromAnswer(a), err
		}
		busy += time.Since(roundStart)
		checkRound(answers, errs)
	}

	if err := paperAppendBatch(st.planner, in, nAppends, cfg.Seed, &appendLat, rep); err != nil {
		return err
	}

	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	rep.set("setup_s", median(setupS))
	rep.set("ops_per_s", rate(busy, &all))
	rep.set("query_p50_us", all.us(0.5, busy))
	rep.set("query_p90_us", all.us(0.9, busy))
	rep.set("frontier_query_p50_us", front.us(0.5, busy))
	rep.set("append_p50_us", appendLat.us(0.5))
	rep.set("query_ios", float64(ios)/float64(len(all.d)))
	rep.set("index_mb", indexMB)
	rep.set("rss_mb", rss)
	rep.info["setup_s_each"] = setupS
	return nil
}

// paperAppendBatch makes one fixed, seeded batch of the paper's §4
// update: n Planner.Append calls with no memtable, so the DB and both
// indexes grow in place, each extending object 7919·g mod m past its
// last vertex. It adds each call's latency to apps. No query follows a
// batch, so no answer is judged on data the appends changed.
func paperAppendBatch(p *temporalrank.Planner, in []temporalrank.SeriesInput, n int, seed int64, apps *lat, rep *report) error {
	m := len(in)
	lastT := make([]float64, m)
	lastV := make([]float64, m)
	for i, s := range in {
		lastT[i], lastV[i] = s.Times[len(s.Times)-1], s.Values[len(s.Values)-1]
	}
	rng := rand.New(rand.NewSource(seed ^ 0xa99e))
	for g := 0; g < n; g++ {
		id := (g * 7919) % m
		t := lastT[id] + 0.5 + rng.Float64()
		v := math.Max(1, lastV[id]+rng.NormFloat64())
		lastT[id], lastV[id] = t, v
		t0 := time.Now()
		err := p.Append(id, t, v)
		apps.add(time.Since(t0))
		rep.count("append", err != nil)
		if err != nil {
			return fmt.Errorf("append %d at %g: %w", id, t, err)
		}
	}
	return nil
}

// tracePaperTopK runs the layer ladder Planner.Run → Plan → Index.Run
// on the same query list and derives the paper-topk per-layer metrics.
func tracePaperTopK(cfg config, rep *report, ds *tsdata.Dataset, st *paperStack, qs []paperQuery, cacheBlocks int, checkRound func([]answer, []error)) error {
	rep.set("exact.build_s", st.exactS.Seconds())
	rep.set("approx.build_s", st.approx.Seconds())
	t0 := time.Now()
	if _, err := breakpoint.Build2WithTargetR(ds, paperTargetR, true); err != nil {
		return err
	}
	rep.set("breakpoint.build2_s", time.Since(t0).Seconds())

	if err := paperPoolLayer(rep, ds, st, qs, cacheBlocks); err != nil {
		return err
	}

	// Each rung runs over the whole list in its own pass, so every rung
	// meets the buffer pools in the same state; the spans of query i in
	// one round share its request id.
	ctx := context.Background()
	tr := newTracer(time.Now())
	answers := make([]answer, len(qs))
	errs := make([]error, len(qs))
	ixAnswers := make([]answer, len(qs))
	ixErrs := make([]error, len(qs))
	tops := make([]int, len(qs))
	ixs := make([]*temporalrank.Index, len(qs))
	ios := map[temporalrank.Method][2]uint64{} // IOs, queries
	var round int64
	start := time.Now()
	for time.Since(start) < cfg.Duration {
		round++
		req := func(i int) int64 { return round*int64(len(qs)) + int64(i) }
		for i, pq := range qs {
			tops[i] = tr.begin("planner.run", req(i), -1)
			a, err := st.planner.Run(ctx, pq.q)
			tr.end(tops[i])
			answers[i], errs[i] = fromAnswer(a), err
			c := ios[a.Method]
			ios[a.Method] = [2]uint64{c[0] + a.IOs, c[1] + 1}
		}
		for i, pq := range qs {
			ps := tr.begin("planner.plan", req(i), tops[i])
			qr := st.planner.Plan(pq.q)
			tr.end(ps)
			ix, ok := qr.(*temporalrank.Index)
			if !ok {
				return fmt.Errorf("%v planned onto %T, want an index", pq.q, qr)
			}
			ixs[i] = ix
		}
		for i, pq := range qs {
			name := "exact.run"
			if ixs[i].Method().IsApprox() {
				name = "approx.run"
			}
			is := tr.begin(name, req(i), tops[i])
			a, err := ixs[i].Run(ctx, pq.q)
			tr.end(is)
			ixAnswers[i], ixErrs[i] = fromAnswer(a), err
		}
		checkRound(answers, errs)
		checkRound(ixAnswers, ixErrs)
	}

	// Allocations: a bare loop over the list, nothing of the
	// benchmark's own inside.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, pq := range qs {
		_, _ = st.planner.Run(ctx, pq.q)
	}
	runtime.ReadMemStats(&after)
	rep.set("planner.allocs_per_query", float64(after.Mallocs-before.Mallocs)/float64(len(qs)))

	meanIOs := func(m temporalrank.Method) float64 {
		c := ios[m]
		if c[1] == 0 {
			return 0
		}
		return float64(c[0]) / float64(c[1])
	}
	rep.set("planner.plan_us", durations("planner.plan", tr).us(0.5))
	rep.set("exact.run_us", durations("exact.run", tr).us(0.5))
	rep.set("approx.run_us", durations("approx.run", tr).us(0.5))
	rep.set("exact.ios", meanIOs(temporalrank.MethodExact3))
	rep.set("approx.ios", meanIOs(temporalrank.MethodAppx2))
	rep.info["traced_planner_run_p50_us"] = durations("planner.run", tr).us(0.5)
	path, err := writeSpans(filepath.Join(cfg.WorkDir, "traces"), cfg.Workload, cfg.Seed, tr)
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	rep.zeroLayers()
	return nil
}

// paperPoolLayer builds the same two methods through core.Build with
// the workload's CacheBlocks, so their buffer pools can be read, and
// runs the query list on the structure the planner routes each query
// to: one warm pass, then one measured pass. It sets the pool hit
// ratio and the cost-model error, mean |ln(page reads / EstimateIOs)|
// per method, averaged over the two methods.
func paperPoolLayer(rep *report, ds *tsdata.Dataset, st *paperStack, qs []paperQuery, cacheBlocks int) error {
	e3, err := core.Build(core.Exact3, ds, core.Config{CacheBlocks: cacheBlocks})
	if err != nil {
		return err
	}
	a2, err := core.Build(core.Appx2, ds, core.Config{CacheBlocks: cacheBlocks, Epsilon: st.appx2.Epsilon()})
	if err != nil {
		return err
	}
	pools := map[temporalrank.Method]*blockio.BufferPool{}
	structs := map[temporalrank.Method]exact.Method{temporalrank.MethodExact3: e3, temporalrank.MethodAppx2: a2}
	for meth, s := range structs {
		p, ok := s.Device().(*blockio.BufferPool)
		if !ok {
			return fmt.Errorf("%s device is %T, want a buffer pool", meth, s.Device())
		}
		pools[meth] = p
	}
	errSum := map[temporalrank.Method][2]float64{}
	var hits, misses uint64
	for pass := 0; pass < 2; pass++ {
		for _, pq := range qs {
			ix := st.planner.Plan(pq.q).(*temporalrank.Index)
			meth := ix.Method()
			pool := pools[meth]
			h0, m0 := pool.HitMiss()
			var err error
			if pq.q.Agg == temporalrank.AggInstant {
				_, err = e3.(*exact.Exact3).InstantTopK(pq.q.K, pq.q.T1)
			} else {
				_, err = structs[meth].TopK(pq.q.K, pq.q.T1, pq.q.T2)
			}
			if err != nil {
				return fmt.Errorf("%s %v: %w", meth, pq.q, err)
			}
			h1, m1 := pool.HitMiss()
			if pass == 0 {
				continue
			}
			hits += h1 - h0
			misses += m1 - m0
			reads := float64(h1 - h0 + m1 - m0)
			est := st.planner.EstimateIOs(ix, pq.q)
			e := errSum[meth]
			errSum[meth] = [2]float64{e[0] + math.Abs(math.Log(math.Max(reads, 1)/est)), e[1] + 1}
		}
	}
	var cme float64
	for _, e := range errSum {
		cme += e[0] / e[1] / float64(len(errSum))
	}
	rep.set("blockio.hit_ratio", float64(hits)/float64(hits+misses))
	rep.set("planner.cost_model_error", cme)
	return nil
}
