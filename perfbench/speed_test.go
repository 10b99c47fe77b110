package main

import (
	"testing"
	"time"
)

// The scale factors are probeRef over the median probe time, for wall
// and CPU time apart, so one slow probe does not move them.
func TestScales(t *testing.T) {
	milli := func(f float64) time.Duration { return time.Duration(f * float64(time.Millisecond)) }
	samples := []probeSample{
		{wall: milli(14), cpu: milli(14)},
		{wall: milli(14), cpu: milli(7)},
		{wall: milli(90), cpu: milli(7)}, // a probe the host descheduled
	}
	wall, cpu := scales(samples)
	if wall != 0.5 || cpu != 1 {
		t.Errorf("scales = %v, %v; want 0.5, 1", wall, cpu)
	}
	if wall, cpu := scales(nil); wall != 1 || cpu != 1 {
		t.Errorf("scales(nil) = %v, %v; want 1, 1", wall, cpu)
	}
}

// The probe does the same work every time, and its walk stays inside
// the table.
func TestProbeRuns(t *testing.T) {
	p, err := newSpeedProbe()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		s := p.run()
		if s.wall <= 0 || s.cpu <= 0 {
			t.Fatalf("probe %d timed %v wall, %v CPU", i, s.wall, s.cpu)
		}
	}
}
