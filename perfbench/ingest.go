package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"temporalrank"
)

// ingest-mixed sizes. A round is one memtable flush worth of appends
// (16 per read). A run is a sequence of episodes, each a fixed number
// of rounds on a freshly set-up planner, so every episode starts and
// ends with the same data however fast the program is; each set-up is
// one setup_s sample.
const (
	ingestM            = 4000
	ingestNavg         = 50
	ingestCacheEntries = 256
	ingestWindows      = 128
	ingestAppendsPer   = 16
	ingestReadsPer     = 256 // reads per round: 256 × 16 = 4096 appends, the default flush
	ingestRounds       = 24  // rounds per episode
)

// ingestRead is one read of the fixed sequence: a historical window
// (index into the window list) or a frontier window of width w that
// ends at the newest appended time.
type ingestRead struct {
	hist     int // -1 for a frontier read
	frontier temporalrank.Query
}

// ingestSetup builds the serving planner: EXACT3 sealed, the result
// cache and the memtable at its default flush.
func ingestSetup(in []temporalrank.SeriesInput) (*temporalrank.Planner, error) {
	db, err := temporalrank.NewDB(in)
	if err != nil {
		return nil, err
	}
	ix, err := db.BuildIndex(temporalrank.Options{Method: temporalrank.MethodExact3, SealIndexes: true})
	if err != nil {
		return nil, err
	}
	p, err := temporalrank.NewPlanner(db, ix)
	if err != nil {
		return nil, err
	}
	p.EnableResultCache(ingestCacheEntries)
	if err := p.EnableMemtable(temporalrank.MemtableOptions{}); err != nil {
		return nil, err
	}
	return p, nil
}

// zipfPicks returns n indices in [0, k) with a Zipf(1.1) skew: the
// inverse CDF at n evenly spread points, in an order drawn from rng,
// so every seed reads each rank equally often.
func zipfPicks(rng *rand.Rand, n, k int) []int {
	cdf := make([]float64, k)
	var sum float64
	for r := range cdf {
		sum += math.Pow(float64(r+1), -1.1)
		cdf[r] = sum
	}
	out := make([]int, n)
	for i, u := range strata(rng, n) {
		out[i] = min(k-1, sort.SearchFloat64s(cdf, u*sum))
	}
	return out
}

// ingestWorkload is the seeded input of ingest-mixed.
type ingestWorkload struct {
	in      []temporalrank.SeriesInput
	windows []temporalrank.Query
	reads   []ingestRead
	step    float64   // mean sampling step of an appended vertex
	noise   []float64 // the appends' random walk
}

func newIngestWorkload(cfg config) (*ingestWorkload, error) {
	m := scaled(ingestM, cfg.Scale, 40)
	navg := scaled(ingestNavg, cfg.Scale, 10)
	readsPer := scaled(ingestReadsPer, cfg.Scale, 20)
	ds, in, err := tempInputs(m, navg, cfg.Seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x1e57))
	// Historical windows lie before every object's last base vertex,
	// so no append can touch them.
	minEnd := math.Inf(1)
	for _, s := range in {
		minEnd = math.Min(minEnd, s.Times[len(s.Times)-1])
	}
	start, span := ds.Start(), minEnd-ds.Start()
	wl := &ingestWorkload{in: in, step: span / float64(navg)}
	// Historical windows, index = zipf rank: half sum, a quarter avg, a
	// quarter instant, widths log-spread over 1–20% of the span, k over
	// [10, 50]. Shape follows the rank (golden-ratio spread), so the hot
	// windows are alike for every seed; the seed places them in time.
	wl.windows = make([]temporalrank.Query, ingestWindows)
	for i := range wl.windows {
		k := 10 + int(math.Mod(float64(i)*0.4142135623730951, 1)*41)
		w := span * 0.01 * math.Pow(20, math.Mod(float64(i)*0.6180339887498949, 1))
		t1 := start + rng.Float64()*(span-w)
		switch i % 4 {
		case 0, 2:
			wl.windows[i] = temporalrank.SumQuery(k, t1, t1+w)
		case 1:
			wl.windows[i] = temporalrank.AvgQuery(k, t1, t1+w)
		default:
			wl.windows[i] = temporalrank.InstantQuery(k, t1)
		}
	}
	// The read sequence of one round: 90% historical, zipf over the
	// windows; 10% frontier sum windows of 2–10% of the span.
	picks := zipfPicks(rng, readsPer, ingestWindows)
	nf := readsPer / 10
	fks, fws := strata(rng, nf), strata(rng, nf)
	wl.reads = make([]ingestRead, readsPer)
	for i := range wl.reads {
		if f := i / 10; i%10 == 9 && f < nf {
			w := span * (0.02 + 0.08*fws[f])
			wl.reads[i] = ingestRead{hist: -1, frontier: temporalrank.SumQuery(10+int(fks[f]*41), -w, 0)}
			continue
		}
		wl.reads[i] = ingestRead{hist: picks[i]}
	}
	wl.noise = make([]float64, m*ingestAppendsPer)
	for i := range wl.noise {
		wl.noise[i] = rng.NormFloat64()
	}
	return wl, nil
}

// ingestSamples collects one run's measurements over its episodes.
type ingestSamples struct {
	// Historical reads, split by whether the result cache answered.
	hit, miss, front, appends timed
	measured                  time.Duration // clock time of all episodes so far
	ios                       uint64
	reads                     int
	setupS                    []float64
	indexMB                   float64 // the freshly set-up index
	appended                  int
	episodes                  int

	// traced run only
	tr          *tracer
	req         int64
	baseLat     lat
	activeSegs  []float64
	compactBusy time.Duration
}

func runIngestMixed(cfg config, rep *report) error {
	wl, err := newIngestWorkload(cfg)
	if err != nil {
		return err
	}
	s := &ingestSamples{}
	if cfg.Trace {
		s.tr = newTracer(time.Now())
	}
	for s.measured < cfg.Duration {
		if err := ingestEpisode(wl, s, rep); err != nil {
			return err
		}
	}
	hits, misses := len(s.hit.d), len(s.miss.d)
	rep.info["episodes"] = s.episodes
	rep.info["appends"] = s.appended
	rep.info["setup_s_each"] = s.setupS
	rep.info["historical_hit_ratio"] = float64(hits) / float64(hits+misses)

	if s.tr != nil {
		rep.set("qcache.hit_ratio", float64(hits)/float64(hits+misses))
		rep.set("qcache.hit_us", s.hit.d.us(0.5))
		rep.set("ingest.merge_us", s.front.d.us(0.5)-s.baseLat.us(0.5))
		rep.set("memtable.active_segments_p50", median(s.activeSegs))
		rep.set("memtable.compact_busy_s", s.compactBusy.Seconds()/float64(s.episodes))
		rep.info["traced_historical_miss_p50_us"] = s.miss.us(0.5, s.measured)
		path, err := writeSpans(filepath.Join(cfg.WorkDir, "traces"), cfg.Workload, cfg.Seed, s.tr)
		if err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
		rep.zeroLayers()
		return nil
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	rep.set("setup_s", median(s.setupS))
	rep.set("ops_per_s", float64(s.appended+s.reads)/s.measured.Seconds())
	rep.set("query_p50_us", s.miss.us(0.5, s.measured))
	rep.set("query_p90_us", s.miss.us(0.9, s.measured))
	rep.set("frontier_query_p50_us", s.front.us(0.5, s.measured))
	rep.set("append_p50_us", s.appends.us(0.5, s.measured))
	rep.set("query_ios", float64(s.ios)/float64(s.reads))
	rep.set("index_mb", s.indexMB)
	rep.set("rss_mb", rss)
	return nil
}

// ingestEpisode sets up a fresh planner (one setup_s sample), runs
// ingestRounds rounds of the sequence, waits for compaction to settle,
// and checks every read against the reference state it should have
// seen.
func ingestEpisode(wl *ingestWorkload, s *ingestSamples, rep *report) error {
	m := len(wl.in)
	runtime.GC()
	t0 := time.Now()
	p, err := ingestSetup(wl.in)
	if err != nil {
		return err
	}
	s.setupS = append(s.setupS, time.Since(t0).Seconds())
	var b int64
	for _, ix := range p.Indexes() {
		b += ix.Stats().Bytes
	}
	s.indexMB = float64(b) / (1 << 20)

	lastT := make([]float64, m)
	lastV := make([]float64, m)
	for i, in := range wl.in {
		lastT[i], lastV[i] = in.Times[len(in.Times)-1], in.Values[len(in.Values)-1]
	}
	var (
		ctx      = context.Background()
		logT     []float64 // acknowledged appends in order; object g mod m
		logV     []float64
		frontier float64 // newest appended time
		g        int     // appends issued
	)
	nextAppend := func() (int, float64, float64) {
		id := g % m
		t := lastT[id] + wl.step*(0.5+0.5*math.Abs(wl.noise[g%len(wl.noise)]))
		v := math.Max(1, lastV[id]+2*wl.noise[(g*7+3)%len(wl.noise)])
		lastT[id], lastV[id] = t, v
		g++
		return id, t, v
	}

	// Reads are checked after the episode against the reference state
	// they should have seen (appendsBefore acknowledged appends).
	type readRec struct {
		q             temporalrank.Query
		hist          int
		appendsBefore int
		ans           answer
		err           error
	}
	var recs []readRec

	// Traced run: compaction busy time, sampled at every operation.
	tr := s.tr
	var (
		lastSample    = time.Now()
		wasCompacting bool
	)
	sampleCompaction := func() {
		now := time.Now()
		if wasCompacting {
			s.compactBusy += now.Sub(lastSample)
		}
		st, _ := p.MemtableStats()
		wasCompacting, lastSample = st.Compacting, now
	}
	// A historical read hit the cache when the hit counter moved; the
	// counter is read after the clock stops.
	cs, _ := p.CacheStats()
	hitsSeen := cs.Hits

	loopStart := time.Now()
	at := func(t time.Time) time.Duration { return s.measured + t.Sub(loopStart) }
	for r := 0; r < ingestRounds; r++ {
		for _, rd := range wl.reads {
			for j := 0; j < ingestAppendsPer; j++ {
				id, t, v := nextAppend()
				var sp int
				if tr != nil {
					sampleCompaction()
					s.req++
					sp = tr.begin("planner.append", s.req, -1)
				}
				t0 := time.Now()
				err := p.Append(id, t, v)
				dur := time.Since(t0)
				if tr != nil {
					tr.end(sp)
				}
				s.appends.add(at(t0), dur)
				if err != nil {
					return fmt.Errorf("append %d at %g: %w", id, t, err)
				}
				logT = append(logT, t)
				logV = append(logV, v)
				frontier = math.Max(frontier, t)
			}
			q := rd.frontier
			if rd.hist >= 0 {
				q = wl.windows[rd.hist]
			} else {
				w := -q.T1
				q.T1, q.T2 = frontier-w, frontier
			}
			var sp int
			if tr != nil {
				sampleCompaction()
				s.req++
				if rd.hist < 0 {
					st, _ := p.MemtableStats()
					s.activeSegs = append(s.activeSegs, float64(st.ActiveSegments))
				}
				sp = tr.begin("planner.run", s.req, -1)
			}
			t0 := time.Now()
			a, err := p.Run(ctx, q)
			dur := time.Since(t0)
			if tr != nil {
				tr.end(sp)
				if rd.hist < 0 {
					base := p.Indexes()[0]
					bs := tr.begin("index.run", s.req, sp)
					t1 := time.Now()
					_, _ = base.Run(ctx, q)
					s.baseLat.add(time.Since(t1))
					tr.end(bs)
				}
			}
			if rd.hist >= 0 {
				cs, _ := p.CacheStats()
				if cs.Hits > hitsSeen {
					s.hit.add(at(t0), dur)
				} else {
					s.miss.add(at(t0), dur)
				}
				hitsSeen = cs.Hits
			} else {
				s.front.add(at(t0), dur)
			}
			s.ios += a.IOs
			s.reads++
			recs = append(recs, readRec{q: q, hist: rd.hist, appendsBefore: g, ans: fromAnswer(a), err: err})
		}
	}
	s.measured += time.Since(loopStart)
	s.appended += g
	s.episodes++
	// A background compaction still running would take CPU from the
	// next episode. The traced run counts the drain as busy time too,
	// so compact_busy_s is all the compaction an episode's work causes.
	for {
		if tr != nil {
			sampleCompaction()
		}
		st, _ := p.MemtableStats()
		if !st.Compacting {
			break
		}
		time.Sleep(time.Millisecond)
	}

	for i := 0; i < g; i++ {
		rep.count("append", false)
	}
	ref := newReference(wl.in, 0)
	histTruth := map[int]truth{}
	applied := 0
	for _, r := range recs {
		for ; applied < r.appendsBefore; applied++ {
			ref.push(applied%m, logT[applied], logV[applied])
		}
		op := "frontier_read"
		if r.hist >= 0 {
			op = "historical_read"
		}
		if r.err != nil {
			rep.count(op, true)
			rep.reject(op, r.err)
			continue
		}
		var tt truth
		if r.hist >= 0 {
			var ok bool
			if tt, ok = histTruth[r.hist]; !ok {
				tt = ref.truth(r.q, nil)
				histTruth[r.hist] = tt
			}
		} else {
			tt = ref.truth(r.q, nil)
		}
		err := ref.check(r.q, r.ans, tt)
		rep.count(op, err != nil)
		if err != nil {
			rep.reject(op, err)
		}
	}
	return nil
}
