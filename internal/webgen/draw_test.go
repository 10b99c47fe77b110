package webgen

import (
	"math"
	"math/rand"
	"testing"
)

// firstFloat64 is math/rand's first Float64 for every seed: the edge
// cases of rngSource.Seed's reduction (0, negatives, multiples of
// 2³¹−1, the int64 extremes) and 200 000 random seeds.
func TestFirstFloat64MatchesMathRand(t *testing.T) {
	const m = 1<<31 - 1
	seeds := []int64{0, 1, -1, m, -m, 2 * m, -2 * m, m - 1, m + 1, 89482311,
		math.MaxInt64, math.MinInt64, math.MaxInt64 / m * m, math.MinInt64 / m * m}
	n := 200000
	if testing.Short() {
		n = 20000
	}
	rng := rand.New(rand.NewSource(38))
	for len(seeds) < n {
		seeds = append(seeds, int64(rng.Uint64()), int64(rng.Intn(1<<20))-1<<19, int64(rng.Intn(1<<10))*m)
	}
	ref := rand.New(rand.NewSource(0))
	for _, s := range seeds {
		ref.Seed(s)
		want := ref.Float64()
		got, ok := firstFloat64(s)
		if !ok || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("firstFloat64(%d) = %v, %v; math/rand draws %v", s, got, ok, want)
		}
	}
}

// roleDraw hashes exactly as the reference does: its draws equal
// roleDrawReference's over seeds, domains and roles.
func TestRoleDrawMatchesReference(t *testing.T) {
	domains := []string{"", "a", "cvs0-pharmacy.com", "rxdeal12.ru", "ünïcode.example", "x|y"}
	roles := []string{"", "isolated", "evader", "burst|2", "ep|facebook.com", "signal", "cleaned"}
	for _, seed := range []int64{0, 1, -7, 20180326, math.MaxInt64, math.MinInt64} {
		for _, d := range domains {
			for _, r := range roles {
				if got, want := roleDraw(seed, d, r), roleDrawReference(seed, d, r); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("roleDraw(%d, %q, %q) = %v, reference %v", seed, d, r, got, want)
				}
			}
		}
	}
}

// FuzzRoleDraw pins the fast draw against math/rand for any int64
// source seed, and against the reference for any world seed, domain and
// role.
func FuzzRoleDraw(f *testing.F) {
	f.Add(int64(0), "cvs0-pharmacy.com", "isolated")
	f.Add(int64(-1), "rxdeal12.ru", "ep|facebook.com")
	f.Add(int64(1<<31-1), "", "")
	f.Add(int64(math.MinInt64), "a|b", "burst|2")
	f.Fuzz(func(t *testing.T, seed int64, domain, role string) {
		// When the first draw rounds to 1 (ok false) math/rand draws
		// again, and roleDraw falls back to it.
		want := rand.New(rand.NewSource(seed)).Float64()
		if got, ok := firstFloat64(seed); ok && math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("firstFloat64(%d) = %v, %v; math/rand draws %v", seed, got, ok, want)
		}
		if got, want := roleDraw(seed, domain, role), roleDrawReference(seed, domain, role); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("roleDraw(%d, %q, %q) = %v, reference %v", seed, domain, role, got, want)
		}
	})
}
