package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// Runtime metrics read at both ends of the timed phase.
const (
	rmAllocBytes = "/gc/heap/allocs:bytes"
	rmLiveHeap   = "/gc/heap/live:bytes"
	rmGCCycles   = "/gc/cycles/total:gc-cycles"
	rmGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	rmSched      = "/sched/latencies:seconds"
)

// runtimeSample is one read of the process-wide counters the end-to-end
// and runtime-layer metrics are differences of.
type runtimeSample struct {
	at         time.Time
	cpu        time.Duration
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64
	sched      *metrics.Float64Histogram
}

func readRuntime() runtimeSample {
	ss := []metrics.Sample{{Name: rmAllocBytes}, {Name: rmGCCycles}, {Name: rmGCCPU}, {Name: rmSched}}
	metrics.Read(ss)
	return runtimeSample{
		at:         time.Now(),
		cpu:        processCPU(),
		allocBytes: ss[0].Value.Uint64(),
		gcCycles:   ss[1].Value.Uint64(),
		gcCPU:      ss[2].Value.Float64(),
		sched:      ss[3].Value.Float64Histogram(),
	}
}

// processCPU is the user+system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler records the peak live heap (as of the latest GC) while
// the timed phase runs.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		s := []metrics.Sample{{Name: rmLiveHeap}}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for it, and returns the peak.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	h.done.Wait()
	s := []metrics.Sample{{Name: rmLiveHeap}}
	metrics.Read(s)
	if v := s[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
	return h.peak
}

// phase measures one timed phase: wall time, process CPU, heap bytes
// allocated, peak live heap, and the runtime's GC and scheduler
// counters.
type phase struct {
	begin runtimeSample
	end   runtimeSample
	heap  *heapSampler
	peak  uint64
	// probe is the run's speed probe; the time it spends probing within
	// the phase is left out of the phase's wall and CPU time. paused
	// holds the probe's paused time at the start, and once the phase
	// has stopped, the probes' time within it.
	probe  *speedProbe
	paused time.Duration
}

// startPhase collects the set-up's garbage first, so the phase neither
// pays for it nor counts it as live heap.
func startPhase(probe *speedProbe) *phase {
	runtime.GC()
	p := &phase{heap: startHeapSampler(20 * time.Millisecond), probe: probe}
	p.paused = probe.paused
	p.begin = readRuntime()
	probe.last = p.begin.at
	return p
}

func (p *phase) stop() {
	p.end = readRuntime()
	p.peak = p.heap.finish()
	p.paused = p.probe.paused - p.paused
}

// wall and cpu leave the probes out: a probe is single-threaded and
// CPU-bound, so its CPU time is its wall time.
func (p *phase) wall() time.Duration { return p.end.at.Sub(p.begin.at) - p.paused }
func (p *phase) cpu() time.Duration  { return p.end.cpu - p.begin.cpu - p.paused }
func (p *phase) allocBytes() uint64  { return p.end.allocBytes - p.begin.allocBytes }

// schedP99 is the 99th percentile of goroutine scheduling latency over
// the phase (the upper bound of the histogram bucket holding it).
func (p *phase) schedP99() time.Duration {
	a, b := p.begin.sched, p.end.sched
	var total uint64
	diff := make([]uint64, len(b.Counts))
	for i := range b.Counts {
		diff[i] = b.Counts[i] - a.Counts[i]
		total += diff[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(float64(total) * 0.99)
	var cum uint64
	for i, c := range diff {
		cum += c
		if cum >= want && c > 0 {
			hi := b.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.Buckets[i]
			}
			return time.Duration(hi * float64(time.Second))
		}
	}
	return 0
}
