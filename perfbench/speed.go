package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The machine the benchmark was built on is a two-vCPU share of a busy
// host, and its speed moves in steps of 20–30% over minutes as its
// neighbours come and go: a fixed integer loop and a fixed pointer walk
// both ran 25–30% slower for minutes at a time, with nothing else
// running in the VM, and process CPU time rose with wall time. Ten runs
// of the same code spread over such steps, so every time metric is
// reported at a reference machine speed instead: the run measures the
// machine with a fixed probe, interleaved with its own work, and scales
// its times by probeRef over the probe's median time. A change to the
// program moves its operations' times but not the probe's, so it moves
// the reported figures as it would the raw ones; a step in the machine's
// speed moves both and largely cancels. Raw figures and the probe are
// printed in the report lines; README.md, "Reference speed", has the
// measurements behind the choice of probe.

// probeRef is the probe's reference time: its median on the machine
// above in a quiet stretch. Reported times are what the run would have
// measured had the probe taken this long.
const probeRef = 7 * time.Millisecond

// probeEvery is the phase time per probe: between two rounds (or, on
// serve-cold, two requests) a timed phase takes one probe for every
// probeEvery since the last, at most probeBurst at once. Each probe is
// about probeRef long, so probing costs the run about 2% of its time;
// its time is left out of the phase and its rounds.
const (
	probeEvery = 500 * time.Millisecond
	probeBurst = 8
)

// probeSetup is how many probes are taken before each set-up and after
// the last one.
const probeSetup = 3

// Probe work: each step is one dependent load from a table larger than
// the per-core L2 cache and a chain of multiply-xorshift rounds, so a
// probe times both the memory system and the integer units. Of the
// probes tried, this one followed the serving workloads' speed most
// closely: the machine's slowdowns are mostly in the memory system,
// which the program's graph, map and string work feels and an integer
// loop alone does not.
const (
	probeTableLen = 1 << 22 // 16 MiB of uint32
	probeSteps    = 40000
	probeRounds   = 24
)

// probeSample is one probe's wall time and the CPU time its thread
// spent on it. They differ by the time the host did not run the vCPU
// (steal), which stretches wall time but not CPU time.
type probeSample struct {
	wall, cpu time.Duration
}

// speedProbe times the fixed probe work and keeps its samples.
type speedProbe struct {
	// next lives outside the Go heap, so the probe adds nothing to the
	// live heap, the GC's pacing or the heap metrics.
	next  []uint32
	last  time.Time
	setup []probeSample
	timed []probeSample
	// paused is the probes' wall time within the timed phase.
	paused time.Duration
	sink   uint32
}

// newSpeedProbe builds the probe's table: one cycle through every
// entry in an order drawn from a fixed seed (Sattolo's algorithm), so
// every load depends on the one before and misses the small caches.
func newSpeedProbe() (*speedProbe, error) {
	mem, err := syscall.Mmap(-1, 0, probeTableLen*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("probe table: %w", err)
	}
	next := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), probeTableLen)
	for i := range next {
		next[i] = uint32(i)
	}
	rng := rand.New(rand.NewSource(1))
	for i := len(next) - 1; i > 0; i-- {
		j := rng.Intn(i)
		next[i], next[j] = next[j], next[i]
	}
	return &speedProbe{next: next}, nil
}

// run does the probe work once on a locked OS thread and times it.
func (p *speedProbe) run() probeSample {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPU()
	t0 := time.Now()
	j := p.sink & (probeTableLen - 1)
	h := uint64(j) | 1
	for s := 0; s < probeSteps; s++ {
		j = p.next[j]
		h += uint64(j)
		for r := 0; r < probeRounds; r++ {
			h = h*6364136223846793005 + 1442695040888963407
			h ^= h >> 29
		}
	}
	p.sink = j ^ uint32(h)
	return probeSample{wall: time.Since(t0), cpu: threadCPU() - c0}
}

// threadCPU is the CPU time of the calling OS thread
// (CLOCK_THREAD_CPUTIME_ID, to the nanosecond; getrusage counts in
// scheduler ticks).
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// beforeSetup probes the machine around the set-ups.
func (p *speedProbe) beforeSetup() {
	for i := 0; i < probeSetup; i++ {
		p.setup = append(p.setup, p.run())
	}
}

// between probes the machine between two rounds or operations of a
// timed phase: once for every probeEvery since the last probe, at most
// probeBurst times.
func (p *speedProbe) between() {
	now := time.Now()
	n := min(int(now.Sub(p.last)/probeEvery), probeBurst)
	for i := 0; i < n; i++ {
		p.timed = append(p.timed, p.run())
	}
	if n > 0 {
		p.last = time.Now()
		p.paused += p.last.Sub(now)
	}
}

// scales returns the factors that bring wall times and CPU times
// measured while the samples were taken to the reference speed.
func scales(samples []probeSample) (wall, cpu float64) {
	ws := make([]float64, len(samples))
	cs := make([]float64, len(samples))
	for i, s := range samples {
		ws[i], cs[i] = float64(s.wall), float64(s.cpu)
	}
	ratio := func(m float64) float64 {
		if m == 0 {
			return 1
		}
		return float64(probeRef) / m
	}
	return ratio(median(ws)), ratio(median(cs))
}
