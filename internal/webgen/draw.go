package webgen

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
)

// roleDraw is a snapshot-independent uniform draw in [0,1) for stable
// role assignment (roles must not flip between snapshots). It returns
// exactly roleDrawReference's value, hashing without fmt and taking the
// draw with firstFloat64 instead of seeding a math/rand source.
func roleDraw(seed int64, domain, role string) float64 {
	// FNV-64a of fmt.Sprintf("%d|role|%s|%s", seed, domain, role).
	var buf [128]byte
	b := strconv.AppendInt(buf[:0], seed, 10)
	b = append(b, "|role|"...)
	b = append(b, domain...)
	b = append(b, '|')
	b = append(b, role...)
	h := uint64(fnvOffset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	if f, ok := firstFloat64(int64(h)); ok {
		return f
	}
	return roleDrawReference(seed, domain, role)
}

// firstFloat64 is rand.New(rand.NewSource(seed)).Float64() without
// the source's 607-word state, whose seeding costs about 13 µs and
// 5 KiB for one draw. A fresh source's first Float64 reads only two
// words of that state, vec[333] and vec[606]. Each word is three
// consecutive states of the seed's Lehmer generator
// (x ← 48271·x mod 2³¹−1), reached here by multiplying the seed by
// precomputed powers of 48271, XOR'd with the source's fixed rngCooked
// word. ok is false when the draw rounds to 1 (probability 2⁻⁵³), where
// Float64 draws again. Pinned by TestFirstFloat64MatchesMathRand and
// FuzzRoleDraw.
func firstFloat64(seed int64) (f float64, ok bool) {
	// rngSource.Seed's reduction of the seed to a generator state.
	x := seed % lehmerMod
	if x < 0 {
		x += lehmerMod
	}
	if x == 0 {
		x = 89482311
	}
	// vec[i] = x_{21+3i}<<40 ^ x_{22+3i}<<20 ^ x_{23+3i} ^ rngCooked[i],
	// where x_n is the n-th state after the seed.
	state := func(pow uint64) int64 { return int64(uint64(x) * pow % lehmerMod) }
	v333 := state(lehmerPow1020)<<40 ^ state(lehmerPow1021)<<20 ^ state(lehmerPow1022) ^ rngCooked333
	v606 := state(lehmerPow1839)<<40 ^ state(lehmerPow1840)<<20 ^ state(lehmerPow1841) ^ rngCooked606
	// Float64 is Int63()/2⁶³, and the first Int63 is vec[333]+vec[606]
	// with the sign bit cleared.
	f = float64((v333+v606)&(1<<63-1)) / (1 << 63)
	return f, f < 1
}

// roleDrawReference is roleDraw through a freshly seeded math/rand
// source: the naive reference roleDraw is pinned against, and the draw
// GenerateReference's comparator-driven endpoint assignment uses.
func roleDrawReference(seed int64, domain, role string) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|role|%s|%s", seed, domain, role)
	return rand.New(rand.NewSource(int64(h.Sum64()))).Float64()
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211

	lehmerMod = 1<<31 - 1
	// lehmerPowN is 48271^N mod 2³¹−1.
	lehmerPow1020 = 2082024995
	lehmerPow1021 = 1341337692
	lehmerPow1022 = 1079773482
	lehmerPow1839 = 933195560
	lehmerPow1840 = 665897288
	lehmerPow1841 = 2140244399
	// rngCookedN is math/rand's rngCooked[N].
	rngCooked333 = -4633371852008891965
	rngCooked606 = 4152330101494654406
)
