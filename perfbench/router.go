package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"temporalrank"
)

// router-http topology and load. Two shardservers each host both
// shards, so every shard group has two replicas and a hedge target.
// One keep-alive HTTP connection drives the tier in a closed loop,
// with the benchmark and the three servers on one CPU (see pinOneCPU).
const (
	routerM         = 1000
	routerNavg      = 50
	routerTargetR   = 200
	routerShards    = 2
	routerSeqLen    = 1000 // operations in one round
	routerFlush     = 4096
	routerSetups    = 9
	routerWarmup    = 400 // untimed historical queries before the clock starts
	routerRCAppends = 400 // traced run: RemoteCluster.Append calls after the loop
)

// routerOp is one operation of the connection's fixed sequence.
type routerOp struct {
	append   bool
	frontier bool               // query window ends at the newest append
	q        temporalrank.Query // frontier queries carry the width in -T1
}

// routerSeq draws the connection's sequence: 10% appends; 10% frontier
// sum windows, a quarter of them tolerating ε; and 80% historical
// queries before every object's last base vertex: 30% exact sum, 15%
// exact avg, 15% ε-tolerant sum or avg, 20% instant. Widths are
// log-spread over 1–30% of the span and k over [10, 50] (see strata).
func routerSeq(rng *rand.Rand, n int, start, minEnd float64) []routerOp {
	span := minEnd - start
	ks, fracs, kinds := strata(rng, n), strata(rng, n), strata(rng, n)
	ops := make([]routerOp, n)
	for i := range ops {
		k := 10 + int(ks[i]*41)
		w := span * 0.01 * math.Pow(30, fracs[i])
		t1 := start + rng.Float64()*(span-w)
		var op routerOp
		switch u := kinds[i]; {
		case u < 0.1:
			op.append = true
		case u < 0.2:
			op = routerOp{frontier: true, q: temporalrank.SumQuery(k, -w, 0)}
			if u < 0.125 {
				op.q.MaxEpsilon = 1
			}
		case u < 0.5:
			op.q = temporalrank.SumQuery(k, t1, t1+w)
		case u < 0.65:
			op.q = temporalrank.AvgQuery(k, t1, t1+w)
		case u < 0.725:
			op.q = temporalrank.SumQuery(k, t1, t1+w)
			op.q.MaxEpsilon = 1
		case u < 0.8:
			op.q = temporalrank.AvgQuery(k, t1, t1+w)
			op.q.MaxEpsilon = 1
		default:
			op.q = temporalrank.InstantQuery(k, t1)
		}
		ops[i] = op
	}
	return ops
}

// tier is one launched serving tier.
type tier struct {
	nodes  []*child
	router *child
	base   string // http://127.0.0.1:port
	groups [][]string
}

func (t *tier) all() []*child {
	out := append([]*child(nil), t.nodes...)
	if t.router != nil {
		out = append(out, t.router)
	}
	return out
}

func (t *tier) stop() {
	for _, c := range t.all() {
		c.stop()
	}
}

func (t *tier) died() error {
	for _, c := range t.all() {
		if err := c.died(); err != nil {
			return err
		}
	}
	return nil
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// launchTier copies the seed snapshot for each node (untimed), then
// times server launch → first answer through the router.
func launchTier(cfg config, seedDir, dir string, probe temporalrank.Query) (*tier, time.Duration, error) {
	nodeDirs := []string{filepath.Join(dir, "node-a"), filepath.Join(dir, "node-b")}
	for _, d := range nodeDirs {
		if err := copyDir(seedDir, d); err != nil {
			return nil, 0, err
		}
	}
	t0 := time.Now()
	t := &tier{}
	fail := func(err error) (*tier, time.Duration, error) {
		t.stop()
		return nil, 0, err
	}
	var addrs []string
	for i, d := range nodeDirs {
		c, err := startChild(fmt.Sprintf("shardserver-%d", i), filepath.Join(cfg.BinDir, "shardserver"),
			"-addr", "127.0.0.1:0", "-data", d, "-memtable", strconv.Itoa(routerFlush))
		if err != nil {
			return fail(err)
		}
		t.nodes = append(t.nodes, c)
	}
	for _, c := range t.nodes {
		a, err := c.waitAddr(60 * time.Second)
		if err != nil {
			return fail(err)
		}
		addrs = append(addrs, a)
	}
	spec := ""
	for s := 0; s < routerShards; s++ {
		t.groups = append(t.groups, addrs)
		if s > 0 {
			spec += ";"
		}
		spec += addrs[0] + "," + addrs[1]
	}
	port, err := freePort()
	if err != nil {
		return fail(err)
	}
	hostPort := "127.0.0.1:" + strconv.Itoa(port)
	t.base = "http://" + hostPort
	if t.router, err = startChild("rankserver", filepath.Join(cfg.BinDir, "rankserver"), "-router", spec, "-addr", hostPort); err != nil {
		return fail(err)
	}
	client := &http.Client{Timeout: 5 * time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for {
		if err := t.died(); err != nil {
			return fail(err)
		}
		resp, err := client.Get(t.base + queryPath(probe))
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("router at %s gave no answer within 60s (last error %v)", t.base, err))
		}
		time.Sleep(2 * time.Millisecond)
	}
	client.CloseIdleConnections()
	return t, time.Since(t0), nil
}

func fmtF(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

func queryPath(q temporalrank.Query) string {
	v := url.Values{}
	v.Set("agg", string(q.Agg))
	v.Set("k", strconv.Itoa(q.K))
	if q.Agg == temporalrank.AggInstant {
		v.Set("t", fmtF(q.T1))
	} else {
		v.Set("t1", fmtF(q.T1))
		v.Set("t2", fmtF(q.T2))
	}
	if q.MaxEpsilon > 0 {
		v.Set("eps", fmtF(q.MaxEpsilon))
	}
	return "/query?" + v.Encode()
}

// httpAnswer is the part of rankserver's /query response the checker
// reads.
type httpAnswer struct {
	Exact   bool    `json:"exact"`
	Epsilon float64 `json:"epsilon"`
	Results []struct {
		ID    int     `json:"id"`
		Score float64 `json:"score"`
	} `json:"results"`
	IOs uint64 `json:"ios"`
}

// qrec is one recorded query answer, checked after the run.
type qrec struct {
	rung    string // which ladder rung answered
	q       temporalrank.Query
	appends int // appends acknowledged before it was sent
	ans     answer
	err     error
}

// arec is one acknowledged append.
type arec struct {
	id   int
	t, v float64
}

// connState is the client connection's closed loop.
type connState struct {
	ops     []routerOp
	lastT   []float64 // by global id
	lastV   []float64
	newest  float64 // newest appended time
	step    float64
	rng     *rand.Rand
	client  *http.Client
	appends []arec
	points  int // points drawn by nextPoint
	queries []qrec
	start   time.Time // when the closed loop began
	qLat    timed     // every HTTP query
	fLat    timed     // HTTP queries of frontier windows
	aLat    timed     // HTTP appends
	ios     uint64
	tr      *tracer
}

// nextPoint draws the next append, round-robin over all objects.
func (c *connState) nextPoint() (int, float64, float64) {
	id := c.points % len(c.lastT)
	c.points++
	t := c.lastT[id] + c.step*(0.5+c.rng.Float64())
	v := math.Max(1, c.lastV[id]+2*c.rng.NormFloat64())
	c.lastT[id], c.lastV[id] = t, v
	c.newest = math.Max(c.newest, t)
	return id, t, v
}

func (c *connState) httpQuery(base string, q temporalrank.Query) (answer, uint64, error) {
	resp, err := c.client.Get(base + queryPath(q))
	if err != nil {
		return answer{}, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return answer{}, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return answer{}, 0, fmt.Errorf("GET %s: %s: %s", queryPath(q), resp.Status, bytes.TrimSpace(body))
	}
	var ha httpAnswer
	if err := json.Unmarshal(body, &ha); err != nil {
		return answer{}, 0, fmt.Errorf("decode answer: %w", err)
	}
	a := answer{Exact: ha.Exact, Epsilon: ha.Epsilon, Results: make([]temporalrank.Result, len(ha.Results))}
	for i, r := range ha.Results {
		a.Results[i] = temporalrank.Result{ID: r.ID, Score: r.Score}
	}
	return a, ha.IOs, nil
}

func (c *connState) httpAppend(base string, id int, t, v float64) error {
	body, err := json.Marshal(map[string]any{"id": id, "t": t, "v": v})
	if err != nil {
		return err
	}
	resp, err := c.client.Post(base+"/append", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /append %d: %s: %s", id, resp.Status, bytes.TrimSpace(out))
	}
	return nil
}

// ladder is the traced run's in-bench rungs below HTTP.
type ladder struct {
	hedged, unhedged *temporalrank.RemoteCluster
	local            *temporalrank.Cluster
}

func runRouterHTTP(cfg config, rep *report) error {
	m := scaled(routerM, cfg.Scale, 40)
	navg := scaled(routerNavg, cfg.Scale, 10)
	ds, in, err := tempInputs(m, navg, cfg.Seed)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(cfg.WorkDir, "router-")
	if err != nil {
		return err
	}
	cancelSig := cleanupOnSignal(dir)
	defer cancelSig()
	defer os.RemoveAll(dir)
	defer stopChildren()

	// Seed snapshot: built and checkpointed once, outside setup_s.
	seedDir := filepath.Join(dir, "seed")
	db, err := temporalrank.NewDB(in)
	if err != nil {
		return err
	}
	seedCluster, err := temporalrank.NewClusterFromDB(db, temporalrank.ClusterOptions{
		Shards: routerShards,
		Indexes: []temporalrank.Options{
			{Method: temporalrank.MethodExact3},
			{Method: temporalrank.MethodAppx2, TargetR: routerTargetR},
		},
	})
	if err != nil {
		return err
	}
	if err := seedCluster.Checkpoint(seedDir); err != nil {
		return err
	}
	var indexBytes int64
	for _, sh := range seedCluster.Stats().PerShard {
		for _, ix := range sh.Indexes {
			indexBytes += ix.Bytes
		}
	}
	seedCluster = nil

	minEnd, maxEnd := math.Inf(1), math.Inf(-1)
	for _, s := range in {
		minEnd = math.Min(minEnd, s.Times[len(s.Times)-1])
		maxEnd = math.Max(maxEnd, s.Times[len(s.Times)-1])
	}
	probe := temporalrank.SumQuery(10, ds.Start(), minEnd)

	// From here on the benchmark runs on one CPU, and so do the servers
	// it starts, which inherit the mask.
	cpu, err := pinOneCPU()
	if err != nil {
		return err
	}
	rep.info["cpu"] = cpu

	setups := routerSetups
	if cfg.Trace {
		setups = 1
	}
	var (
		tr     *tier
		setupS []float64
	)
	for i := 0; i < setups; i++ {
		if tr != nil {
			tr.stop()
		}
		t, d, err := launchTier(cfg, seedDir, filepath.Join(dir, fmt.Sprintf("tier-%d", i)), probe)
		if err != nil {
			return err
		}
		tr = t
		setupS = append(setupS, d.Seconds())
	}

	var lad *ladder
	if cfg.Trace {
		lad = &ladder{}
		// The in-bench clusters run no health sweep: a sweep of one
		// cluster can re-bootstrap a replica while another cluster's
		// append is half replicated (see the FOUND line on replica
		// staleness in CHANGES.md).
		if lad.hedged, err = temporalrank.NewRemoteCluster(tr.groups, temporalrank.RemoteClusterOptions{HealthInterval: -1}); err != nil {
			return err
		}
		defer lad.hedged.Close()
		if lad.unhedged, err = temporalrank.NewRemoteCluster(tr.groups, temporalrank.RemoteClusterOptions{HedgeDelay: -1, HealthInterval: -1}); err != nil {
			return err
		}
		defer lad.unhedged.Close()
		localDir := filepath.Join(dir, "local")
		if err := copyDir(seedDir, localDir); err != nil {
			return err
		}
		t0 := time.Now()
		if lad.local, err = temporalrank.OpenClusterSnapshot(localDir, temporalrank.ClusterOptions{}); err != nil {
			return err
		}
		rep.set("snapshot.restore_s", time.Since(t0).Seconds())
	}

	rng := rand.New(rand.NewSource(cfg.Seed*31 + 7))
	c := &connState{
		ops:    routerSeq(rng, scaled(routerSeqLen, cfg.Scale, 20), ds.Start(), minEnd),
		lastT:  make([]float64, m),
		lastV:  make([]float64, m),
		newest: maxEnd,
		step:   (minEnd - ds.Start()) / float64(navg),
		rng:    rng,
		client: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
			MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
		}},
	}
	defer c.client.CloseIdleConnections()
	for id, s := range in {
		c.lastT[id], c.lastV[id] = s.Times[len(s.Times)-1], s.Values[len(s.Values)-1]
	}
	if lad != nil {
		c.tr = newTracer(time.Now())
	}

	// Untimed warm-up: the first historical queries of the sequence, so
	// the connection, caches and the servers' runtimes are warm when the
	// clock starts. Their answers are checked like the rest.
	c.warm(tr.base, scaled(routerWarmup, cfg.Scale, 5))

	// The measured closed loop: whole rounds of the sequence until the
	// duration has passed.
	start := time.Now()
	loopErr := c.loop(tr.base, start, cfg.Duration, lad)
	wall := time.Since(start)
	if err := tr.died(); err != nil {
		return err
	}
	if loopErr != nil {
		return loopErr
	}

	down, err := routerReplicasDown(tr.base)
	if err != nil {
		return err
	}
	// Peak RSS of each server while it runs. (A child's rusage after
	// exit would also count the benchmark's own pages, which the child
	// shared between fork and exec.)
	var rss float64
	for _, c := range tr.all() {
		v, err := vmHWM(c.cmd.Process.Pid)
		if err != nil {
			return err
		}
		rss += v
	}

	if lad != nil {
		// RemoteCluster.Append is timed after the loop with the router
		// stopped, so only one cluster ever writes to the replicas at a
		// time; no query follows these appends.
		tr.router.stop()
		if err := rcAppends(lad.hedged, c, scaled(routerRCAppends, cfg.Scale, 10), rep); err != nil {
			return err
		}
		down += healthDown(lad.hedged) + healthDown(lad.unhedged)
	}
	rep.info["replicas_down"] = down
	checkRouter(rep, in, c, minEnd)

	if lad != nil {
		return traceRouterMetrics(cfg, rep, c, down)
	}
	rep.info["setup_s_each"] = setupS
	rep.set("setup_s", median(setupS))
	rep.set("ops_per_s", rate(wall, &c.qLat, &c.aLat))
	rep.set("query_p50_us", c.qLat.us(0.5, wall))
	rep.set("query_p90_us", c.qLat.us(0.9, wall))
	rep.set("frontier_query_p50_us", c.fLat.us(0.5, wall))
	rep.set("append_p50_us", c.aLat.us(0.5, wall))
	rep.set("query_ios", float64(c.ios)/float64(len(c.qLat.d)))
	rep.set("index_mb", float64(indexBytes)/(1<<20))
	rep.set("rss_mb", rss)
	return nil
}

// warm sends the first n historical queries of the sequence.
func (c *connState) warm(base string, n int) {
	for _, op := range c.ops {
		if op.append || op.frontier {
			continue
		}
		if n--; n < 0 {
			return
		}
		rec := qrec{rung: "http", q: op.q, appends: len(c.appends)}
		rec.ans, _, rec.err = c.httpQuery(base, op.q)
		c.queries = append(c.queries, rec)
	}
}

// loop runs whole rounds of the sequence until d has passed since
// start. With a ladder it also drives each rung below HTTP on the same
// request, so each rung is timed on an otherwise idle tier.
func (c *connState) loop(base string, start time.Time, d time.Duration, lad *ladder) error {
	c.start = start
	var req int64
	for time.Since(start) < d {
		for _, op := range c.ops {
			req++
			if err := c.do(base, op, lad, req); err != nil {
				return err
			}
		}
	}
	return nil
}

// do runs one operation of the sequence.
func (c *connState) do(base string, op routerOp, lad *ladder, req int64) error {
	if op.append {
		return c.doAppend(base, req)
	}
	q := op.q
	if op.frontier {
		w := -q.T1
		q.T1, q.T2 = c.newest-w, c.newest
	}
	rec := qrec{rung: "http", q: q, appends: len(c.appends)}
	var top int
	if c.tr != nil {
		top = c.tr.begin("rankserver.http", req, -1)
	}
	sent := time.Now()
	a, ios, err := c.httpQuery(base, q)
	dur := time.Since(sent)
	if c.tr != nil {
		c.tr.end(top)
	}
	rec.ans, rec.err = a, err
	c.queries = append(c.queries, rec)
	at := sent.Sub(c.start)
	c.qLat.add(at, dur)
	if op.frontier {
		c.fLat.add(at, dur)
	}
	c.ios += ios
	if lad == nil {
		return nil
	}
	rungs := []struct {
		name string
		q    temporalrank.Querier
	}{
		{"remotecluster.hedged", lad.hedged},
		{"remotecluster.unhedged", lad.unhedged},
		{"cluster.run", lad.local},
	}
	for _, r := range rungs {
		rec := qrec{rung: r.name, q: q, appends: len(c.appends)}
		sp := c.tr.begin(r.name, req, top)
		ans, err := r.q.Run(context.Background(), q)
		c.tr.end(sp)
		rec.ans, rec.err = fromAnswer(ans), err
		c.queries = append(c.queries, rec)
	}
	return nil
}

// doAppend sends the next append over HTTP. An append that fails
// leaves the replicas in an unknown state, so it ends the run.
func (c *connState) doAppend(base string, req int64) error {
	id, t, v := c.nextPoint()
	var sp int
	if c.tr != nil {
		sp = c.tr.begin("rankserver.append", req, -1)
	}
	sent := time.Now()
	err := c.httpAppend(base, id, t, v)
	dur := time.Since(sent)
	if c.tr != nil {
		c.tr.end(sp)
	}
	if err != nil {
		return err
	}
	c.aLat.add(sent.Sub(c.start), dur)
	c.appends = append(c.appends, arec{id: id, t: t, v: v})
	return nil
}

// rcAppends makes n appends through rc, continuing the connection's
// round-robin, one at a time, each a span in the connection's tracer.
func rcAppends(rc *temporalrank.RemoteCluster, c *connState, n int, rep *report) error {
	for i := 0; i < n; i++ {
		id, t, v := c.nextPoint()
		sp := c.tr.begin("remotecluster.append", -int64(i+1), -1)
		err := rc.Append(id, t, v)
		c.tr.end(sp)
		rep.count("append", err != nil)
		if err != nil {
			return fmt.Errorf("RemoteCluster.Append %d: %w", id, err)
		}
	}
	return nil
}

// checkRouter checks every recorded answer. A query sees the appends
// acknowledged before it was sent, since the connection sends one
// request at a time. The in-process rung runs on the seed snapshot and
// sees no appends.
func checkRouter(rep *report, in []temporalrank.SeriesInput, c *connState, minEnd float64) {
	ref := newReference(in, routerTargetR)
	for _, a := range c.appends {
		ref.push(a.id, a.t, a.v)
		rep.count("append", false)
	}
	base := make([]int, len(in))
	for i, s := range in {
		base[i] = len(s.Times)
	}
	// counts returns, for each object, how many vertices it has once the
	// first p appends are applied.
	counts := func(p int) []int {
		n := slices.Clone(base)
		for _, a := range c.appends[:p] {
			n[a.id]++
		}
		return n
	}
	static := map[temporalrank.Query]truth{}
	for _, r := range c.queries {
		op := "query_" + r.rung
		if r.err != nil {
			rep.count(op, true)
			rep.reject(op, r.err)
			continue
		}
		var tt truth
		switch {
		case r.rung == "cluster.run":
			tt = ref.truth(r.q, base)
		case r.q.T2 <= minEnd && r.q.T1 <= minEnd: // no append reaches it
			var ok bool
			if tt, ok = static[r.q]; !ok {
				tt = ref.truth(r.q, nil)
				static[r.q] = tt
			}
		default:
			tt = ref.truth(r.q, counts(r.appends))
		}
		err := ref.check(r.q, r.ans, tt)
		rep.count(op, err != nil)
		if err != nil {
			rep.reject(op, err)
		}
	}
}

// routerReplicasDown counts replicas the router's /stats does not
// report live.
func routerReplicasDown(base string) (int, error) {
	resp, err := http.Get(base + "/stats")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var st struct {
		Router []struct {
			Replicas []struct {
				State string `json:"state"`
			} `json:"replicas"`
		} `json:"router"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, fmt.Errorf("decode /stats: %w", err)
	}
	down := 0
	for _, g := range st.Router {
		for _, r := range g.Replicas {
			if r.State != "live" {
				down++
			}
		}
	}
	return down, nil
}

func healthDown(rc *temporalrank.RemoteCluster) int {
	down := 0
	for _, g := range rc.Health() {
		for _, r := range g.Replicas {
			if r.State != "live" {
				down++
			}
		}
	}
	return down
}

// traceRouterMetrics derives the router-http per-layer metrics from the
// spans: each layer's self time is its rung's p50 minus the p50 of the
// rung below it on the same requests.
func traceRouterMetrics(cfg config, rep *report, c *connState, down int) error {
	p50 := func(name string) float64 { return durations(name, c.tr).us(0.5) }
	httpQ, hedged, unhedged, local := p50("rankserver.http"), p50("remotecluster.hedged"), p50("remotecluster.unhedged"), p50("cluster.run")
	httpA, rcA := p50("rankserver.append"), p50("remotecluster.append")
	rep.set("rankserver.http_us", httpQ-hedged)
	rep.set("remotecluster.hedge_us", hedged-unhedged)
	rep.set("remote.rpc_us", unhedged-local)
	rep.set("planner.shard_run_us", local)
	rep.set("rankserver.append_http_us", httpA-rcA)
	rep.set("remotecluster.append_us", rcA)
	rep.set("remotecluster.replicas_down", float64(down))
	rep.info["traced_http_query_p50_us"] = httpQ
	path, err := writeSpans(filepath.Join(cfg.WorkDir, "traces"), cfg.Workload, cfg.Seed, c.tr)
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	rep.zeroLayers()
	return nil
}
