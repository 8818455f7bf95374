package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer's public entry point. Spans of
// one request share Req; Parent is the index of the calling span in
// the same tracer, or -1 for a request's top rung.
type span struct {
	Name       string
	Req        int64
	Parent     int
	Start, End time.Duration // since the tracer's origin
}

// tracer keeps spans in memory; one per client goroutine, so
// recording takes no lock. The spans are written out when the run ends.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer(origin time.Time) *tracer {
	return &tracer{origin: origin, spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its index for end.
func (t *tracer) begin(name string, req int64, parent int) int {
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: time.Since(t.origin)})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = time.Since(t.origin) }

// durations returns the durations of every span with the given name.
func durations(name string, ts ...*tracer) lat {
	var out lat
	for _, t := range ts {
		for _, s := range t.spans {
			if s.Name == name {
				out = append(out, int64(s.End-s.Start))
			}
		}
	}
	return out
}

// writeSpans writes every span as CSV (tracer,name,req,parent,
// start_ns,end_ns) to dir/<workload>-seed<n>.spans.csv and returns the
// path.
func writeSpans(dir, workload string, seed int64, ts ...*tracer) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.csv", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "tracer,name,req,parent,start_ns,end_ns")
	for ti, t := range ts {
		for _, s := range t.spans {
			fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d\n", ti, s.Name, s.Req, s.Parent, s.Start.Nanoseconds(), s.End.Nanoseconds())
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
