package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"pharmaverify/internal/crawler"
	"pharmaverify/internal/reverify"
	"pharmaverify/internal/serve"
)

// span is one timed call at a layer boundary, recorded by the
// benchmark's own code around a call into the program. Times are
// nanoseconds since the tracer started; Parent is the span that caused
// it (0 for none).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the spans kept in memory; later ones are counted as
// dropped. The buffer is allocated before the timed phase.
const maxSpans = 1 << 19

// tracer keeps the spans of one traced run in memory and writes them
// out when the run ends. A nil *tracer records nothing.
type tracer struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	nextID  int32
	dropped int
	// current is the span of the operation in progress on a
	// single-client workload, the parent of the spans it causes.
	current atomic.Int32
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{t0: time.Now(), spans: make([]span, 0, maxSpans)}
}

// record adds a finished span.
func (t *tracer) record(name string, parent int32, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	t.add(span{ID: t.nextID, Parent: parent, Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

// add keeps a span unless the buffer is full. Callers hold t.mu.
func (t *tracer) add(s span) {
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return
	}
	t.spans = append(t.spans, s)
}

// begin reserves the ID of an operation span so the spans it causes can
// name it as parent before it ends; finish records it.
func (t *tracer) begin() int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	t.current.Store(id)
	return id
}

func (t *tracer) finish(id int32, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.add(span{ID: id, Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

// write stores the spans as JSON lines in dir and returns the path.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if t == nil {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// timedFetcher wraps the crawler.Fetcher the program is given and
// accumulates the time spent inside it: the webgen world's page
// rendering lookups, below the crawler.
type timedFetcher struct {
	inner crawler.Fetcher
	tr    *tracer
	ns    atomic.Int64
}

func (f *timedFetcher) Fetch(domain, path string) (string, error) {
	t0 := time.Now()
	html, err := f.inner.Fetch(domain, path)
	t1 := time.Now()
	f.ns.Add(int64(t1.Sub(t0)))
	if f.tr != nil {
		f.tr.record("crawler.fetch", f.tr.current.Load(), t0, t1)
	}
	return html, err
}

func (f *timedFetcher) total() time.Duration { return time.Duration(f.ns.Load()) }

// timedDeployment wraps the reverify.Deployment the pipeline drives. It
// times every Reverify call and the interval since the previous one
// completed, which is the sweep's time per domain; it also records
// every observation so the benchmark can check the sweep's outputs.
type timedDeployment struct {
	reverify.Deployment
	tr *tracer

	mu       sync.Mutex
	lastEnd  time.Time
	inside   time.Duration
	lat      []time.Duration
	verdicts map[string]serve.DomainVerdict
	seen     map[string]int
	errs     int
	pages    int
}

// startSweep resets the per-sweep record; the sweep's first domain is
// timed from t0.
func (d *timedDeployment) startSweep(t0 time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.lastEnd = t0
	d.verdicts = make(map[string]serve.DomainVerdict)
	d.seen = make(map[string]int)
}

func (d *timedDeployment) Reverify(ctx context.Context, domain string) (serve.Observation, error) {
	id := d.tr.begin()
	t0 := time.Now()
	obs, err := d.Deployment.Reverify(ctx, domain)
	t1 := time.Now()
	d.tr.finish(id, "reverify.Reverify", t0, t1)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.inside += t1.Sub(t0)
	d.lat = append(d.lat, t1.Sub(d.lastEnd))
	d.lastEnd = t1
	d.seen[domain]++
	if err != nil {
		d.errs++
		return obs, err
	}
	d.pages += obs.Pages
	d.verdicts[domain] = obs.Verdict
	return obs, nil
}
