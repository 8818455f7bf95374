package main

import (
	"context"
	"math"
	"os"
	"os/exec"
	"testing"
	"time"

	"temporalrank"
)

// buildServers compiles rankserver and shardserver for router-http.
func buildServers(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	out, err := exec.Command("go", "build", "-o", dir+"/", "temporalrank/cmd/rankserver", "temporalrank/cmd/shardserver").CombinedOutput()
	if err != nil {
		t.Fatalf("build servers: %v\n%s", err, out)
	}
	return dir
}

// TestWorkloadsEndToEnd runs every workload at a tiny size, untraced
// and traced, and demands checked answers and every metric.
func TestWorkloadsEndToEnd(t *testing.T) {
	bin := buildServers(t)
	for _, wl := range []string{"paper-topk", "ingest-mixed", "router-http"} {
		for _, trace := range []bool{false, true} {
			name := wl
			if trace {
				name += "/trace"
			}
			t.Run(name, func(t *testing.T) {
				cfg := config{Workload: wl, Seed: 3, Duration: 200 * time.Millisecond, Trace: trace,
					BinDir: bin, WorkDir: t.TempDir(), Scale: 0.02}
				res, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := endToEndMetrics
				if trace {
					want = perLayerMetrics
				}
				if len(res.Metrics) != len(want) {
					t.Fatalf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					v, ok := res.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("missing %s", d.Name)
					case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
						t.Errorf("%s = %v", d.Name, v.Value)
					case !trace && v.Value <= 0:
						t.Errorf("end-to-end %s = %v, want > 0", d.Name, v.Value)
					}
				}
			})
		}
	}
}

// TestCheckerSliverWindow: a window that clips a sliver of an object's
// last segment, answered as a difference of prefix sums the way the
// exact methods compute it. The rounding of the ~1.5e5 prefix sums is
// more than 1e-9 of the 0.01 score, and the checker must accept it;
// an error of 1e-6 of the score must still be caught. The figures are
// those of a router-http frontier query on seed 104.
func TestCheckerSliverWindow(t *testing.T) {
	in := []temporalrank.SeriesInput{{
		Times:  []float64{0, 405.95127469664556, 418.53788479335469},
		Values: []float64{370, 344.7154986183229, 353.13273459681108},
	}}
	ref := newReference(in, 50)
	s := &ref.s[0]
	q := temporalrank.SumQuery(1, 418.53785583656617, 435.4721312775832)
	before := s.pre[1] + s.trap(s.t[1], q.T1, 1)
	tr := ref.truth(q, nil)
	exact := func(score float64) answer {
		return answer{Exact: true, Results: []temporalrank.Result{{ID: 0, Score: score}}}
	}
	if err := ref.check(q, exact(s.pre[2]-before), tr); err != nil {
		t.Errorf("prefix-sum answer rejected: %v", err)
	}
	if err := ref.check(q, exact(tr.top[0]*(1+1e-6)), tr); err == nil {
		t.Errorf("score off by 1e-6 accepted (truth %v)", tr.top[0])
	}
}

// TestCheckerCatchesCorruption feeds the checker real answers from the
// program, then the same answers with one score perturbed past the
// bound and with one id swapped.
func TestCheckerCatchesCorruption(t *testing.T) {
	_, in, err := tempInputs(60, 20, 5)
	if err != nil {
		t.Fatal(err)
	}
	db, err := temporalrank.NewDB(in)
	if err != nil {
		t.Fatal(err)
	}
	const targetR = 50
	ref := newReference(in, targetR)
	ctx := context.Background()
	for _, method := range []temporalrank.Method{temporalrank.MethodExact3, temporalrank.MethodAppx2} {
		ix, err := db.BuildIndex(temporalrank.Options{Method: method, TargetR: targetR})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []temporalrank.Query{
			temporalrank.SumQuery(10, 40, 200),
			temporalrank.AvgQuery(10, 100, 130),
			temporalrank.InstantQuery(10, 77),
		} {
			a, err := ix.Run(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			good := fromAnswer(a)
			tr := ref.truth(q, nil)
			if err := ref.check(q, good, tr); err != nil {
				t.Fatalf("%s %v: correct answer rejected: %v", method, q, err)
			}

			bad := good
			bad.Results = append([]temporalrank.Result(nil), good.Results...)
			w := 1.0
			if q.Agg == temporalrank.AggAvg {
				w = q.T2 - q.T1
			}
			// Past any bound: exact answers allow 1e-9 relative, approximate
			// ones εM above the truth.
			bad.Results[2].Score = (tr.top[2]*w*(1+1e-3) + good.Epsilon*tr.mass*(1+1e-3) + 1) / w
			if err := ref.check(q, bad, tr); err == nil {
				t.Errorf("%s %v: perturbed score accepted", method, q)
			}

			if !good.Exact {
				continue // ids are not judged on approximate answers
			}
			bad.Results = append([]temporalrank.Result(nil), good.Results...)
			outside := -1
			for id, s := range tr.scores {
				if s < tr.top[len(tr.top)-1]-1e-6*math.Abs(s) {
					outside = id
					break
				}
			}
			if outside < 0 {
				t.Fatalf("%v: no object outside the top k", q)
			}
			bad.Results[0].ID = outside
			if err := ref.check(q, bad, tr); err == nil {
				t.Errorf("%s %v: swapped id accepted", method, q)
			}
		}
	}
}

// TestKnownFaultAppx2InPlaceAppend reproduces a fault of the program
// that this benchmark leaves standing: after in-place appends
// (Planner.Append with no memtable) APPX2 answers ε-tolerant queries
// from the structures built before them, so a window past the objects'
// build-time end misses the appended data, beyond the (2ε, α) the
// approx package documents. It fails while the fault stands, so it
// runs only when asked for:
//
//	PERFBENCH_KNOWN_FAULTS=1 go test -run TestKnownFaultAppx2InPlaceAppend
func TestKnownFaultAppx2InPlaceAppend(t *testing.T) {
	if os.Getenv("PERFBENCH_KNOWN_FAULTS") == "" {
		t.Skip("reproduces a known fault of the program; set PERFBENCH_KNOWN_FAULTS=1 to run it")
	}
	const m, navg, targetR = 40, 10, 500
	_, in, err := tempInputs(m, navg, 3)
	if err != nil {
		t.Fatal(err)
	}
	db, err := temporalrank.NewDB(in)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := db.BuildIndex(temporalrank.Options{Method: temporalrank.MethodAppx2, TargetR: targetR})
	if err != nil {
		t.Fatal(err)
	}
	p, err := temporalrank.NewPlanner(db, ix)
	if err != nil {
		t.Fatal(err)
	}
	ref := newReference(in, targetR)
	end := math.Inf(-1)
	for _, s := range in {
		end = math.Max(end, s.Times[len(s.Times)-1])
	}
	// Extend every object by one segment past the latest build-time
	// end, well short of doubling the total mass M (which would trigger
	// the rebuild).
	for id := 0; id < m; id++ {
		s := &ref.s[id]
		tt := end + 100 + float64(id%7)/7
		v := s.v[len(s.v)-1]
		if err := p.Append(id, tt, v); err != nil {
			t.Fatal(err)
		}
		ref.push(id, tt, v)
	}
	q := temporalrank.SumQuery(10, end, end+100)
	q.MaxEpsilon = 1
	a, err := p.Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	ans := fromAnswer(a)
	ans.Epsilon *= 2 // the documented (2ε, α) until the amortized rebuild
	if err := ref.check(q, ans, ref.truth(q, nil)); err != nil {
		t.Errorf("APPX2 after %d in-place appends: %v (%d results)", m, err, len(a.Results))
	}
}
