package main

import (
	"fmt"
	"math"
	"os"
	"slices"
	"sync"
	"syscall"
	"time"
)

// metricDef names one printed metric; the lists mirror BENCHMARK.json.
type metricDef struct {
	Name, Unit string
}

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"query_p50_us", "us"},
	{"query_p90_us", "us"},
	{"frontier_query_p50_us", "us"},
	{"append_p50_us", "us"},
	{"query_ios", "IOs"},
	{"index_mb", "MB"},
	{"rss_mb", "MB"},
}

var perLayerMetrics = []metricDef{
	{"breakpoint.build2_s", "s"},
	{"exact.build_s", "s"},
	{"approx.build_s", "s"},
	{"planner.plan_us", "us"},
	{"exact.run_us", "us"},
	{"approx.run_us", "us"},
	{"exact.ios", "IOs"},
	{"approx.ios", "IOs"},
	{"planner.cost_model_error", "ratio"},
	{"blockio.hit_ratio", "ratio"},
	{"planner.allocs_per_query", "count"},
	{"qcache.hit_ratio", "ratio"},
	{"qcache.hit_us", "us"},
	{"ingest.merge_us", "us"},
	{"memtable.active_segments_p50", "count"},
	{"memtable.compact_busy_s", "s"},
	{"rankserver.http_us", "us"},
	{"remotecluster.hedge_us", "us"},
	{"remote.rpc_us", "us"},
	{"planner.shard_run_us", "us"},
	{"rankserver.append_http_us", "us"},
	{"remotecluster.append_us", "us"},
	{"snapshot.restore_s", "s"},
	{"remotecluster.replicas_down", "count"},
}

// opCount is one operation type's accounting.
type opCount struct {
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
}

// report collects one run's metrics and accounting. A traced run sets
// every per-layer metric its workload does not exercise to 0, so each
// traced run prints the full list.
type report struct {
	mu     sync.Mutex
	values map[string]float64
	ops    map[string]*opCount
	wrong  int64 // answers the reference checker rejected
	info   map[string]any
}

func newReport() *report {
	return &report{values: map[string]float64{}, ops: map[string]*opCount{}, info: map[string]any{}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// zeroLayers records 0 for every per-layer metric not yet set: the
// layer does no work on this workload.
func (r *report) zeroLayers() {
	for _, d := range perLayerMetrics {
		if _, ok := r.values[d.Name]; !ok {
			r.values[d.Name] = 0
		}
	}
}

// count records one attempted operation of kind op; failed marks an
// error or a rejected answer.
func (r *report) count(op string, failed bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.ops[op]
	if c == nil {
		c = &opCount{}
		r.ops[op] = c
	}
	c.Attempted++
	if failed {
		c.Failed++
	}
}

// reject counts a wrong answer (also counted failed by the caller) and
// prints the first few to standard error.
func (r *report) reject(op string, err error) {
	r.mu.Lock()
	r.wrong++
	n := r.wrong
	r.mu.Unlock()
	if n <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: wrong %s answer: %v\n", op, err)
	}
}

// lat is a set of durations in nanoseconds.
type lat []int64

func (l *lat) add(d time.Duration) { *l = append(*l, int64(d)) }

// quantile returns the q-quantile by linear interpolation between
// order statistics, or NaN when empty.
func (l lat) quantile(q float64) float64 {
	if len(l) == 0 {
		return math.NaN()
	}
	s := slices.Clone(l)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return float64(s[len(s)-1])
	}
	f := pos - float64(i)
	return float64(s[i])*(1-f) + float64(s[i+1])*f
}

// us returns the q-quantile in microseconds.
func (l lat) us(q float64) float64 { return l.quantile(q) / 1e3 }

// window is the width of the slices a run is cut into. Each timing
// metric is the median over whole windows of its value in one window,
// so a few seconds of load from elsewhere on the machine move it less
// than they move a whole-run figure.
const window = 500 * time.Millisecond

// timed is a set of operation latencies, each stamped with when the
// operation began (measured time since the loop started).
type timed struct {
	at []time.Duration
	d  lat
}

func (s *timed) add(at, d time.Duration) {
	s.at = append(s.at, at)
	s.d.add(d)
}

// windows groups the latencies by whole window of measured time; a
// trailing partial window is dropped.
func (s *timed) windows(end time.Duration) []lat {
	out := make([]lat, int(end/window))
	for i, at := range s.at {
		if w := int(at / window); w < len(out) {
			out[w] = append(out[w], s.d[i])
		}
	}
	return out
}

// us is the median over whole windows of the windows' q-quantile
// latency, in microseconds. Windows without samples are skipped, and
// a run shorter than one window falls back to the whole run.
func (s *timed) us(q float64, end time.Duration) float64 {
	var per []float64
	for _, l := range s.windows(end) {
		if len(l) > 0 {
			per = append(per, l.us(q))
		}
	}
	if len(per) == 0 {
		return s.d.us(q)
	}
	return median(per)
}

// rate is the median over whole windows of the operations begun per
// second, the operations of several timed sets together.
func rate(end time.Duration, sets ...*timed) float64 {
	counts := make([]float64, int(end/window))
	var n int
	for _, s := range sets {
		n += len(s.at)
		for _, at := range s.at {
			if w := int(at / window); w < len(counts) {
				counts[w]++
			}
		}
	}
	if len(counts) == 0 {
		return float64(n) / end.Seconds()
	}
	for i := range counts {
		counts[i] /= window.Seconds()
	}
	return median(counts)
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB is the peak resident set size of this process in MB
// (getrusage; Linux reports ru_maxrss in KiB).
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil
}
