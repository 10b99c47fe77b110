package webgen

import (
	"testing"

	"pharmaverify/internal/kernelgate"
	"pharmaverify/internal/parallel"
)

// worldGate holds the webgen-world bars: Generate against
// GenerateReference. The kernel's headline win is allocations (the
// fmt and Builder intermediates are gone).
var worldGate = kernelgate.Bars{Speedup: 5.65, AllocRatio: 2.0, AllocsOp: 18735}

// worldGateConfig is the world the gate generates: large enough that
// rendering dominates, small enough that one reference generation
// stays well under a second.
var worldGateConfig = Config{Seed: 424242, Snapshot: 1, NumLegit: 12, NumIllegit: 60}

var gateSink *World

// worldGatePaths pins the process worker default to 1 for the rest of
// tb, so the gate records the single-thread algorithmic win rather
// than parallelism, and returns the two timed calls after failing tb
// unless they generate the same world.
func worldGatePaths(tb testing.TB) (naive, kernel func()) {
	tb.Helper()
	prev := parallel.Default()
	parallel.SetDefault(1)
	tb.Cleanup(func() { parallel.SetDefault(prev) })

	if err := worldsDiff(GenerateReference(worldGateConfig), Generate(worldGateConfig)); err != nil {
		tb.Fatalf("Generate differs from the reference: %v", err)
	}
	naive = func() { gateSink = GenerateReference(worldGateConfig) }
	kernel = func() { gateSink = Generate(worldGateConfig) }
	return naive, kernel
}

// TestKernelGate checks the webgen-world gate's deterministic half:
// identical output and the allocation-ratio floor on the gate workload.
func TestKernelGate(t *testing.T) {
	naive, kernel := worldGatePaths(t)
	kernelgate.CheckAllocRatio(t, worldGate, 1, naive, kernel)
}

// BenchmarkKernelGate times the webgen-world gate against all its bars
// (see package kernelgate).
func BenchmarkKernelGate(b *testing.B) {
	naive, kernel := worldGatePaths(b)
	kernelgate.Run(b, worldGate, naive, kernel)
}
