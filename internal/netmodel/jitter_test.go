package netmodel

import (
	"math"
	"math/rand"
	"testing"
)

// TestJitterNormOracle checks the closed-form first draw against math/rand
// bit for bit: boundary seeds, seeds shaped like RTT's pair seeds, random
// seeds, and at least 1,000 seeds on which the closed form rejects, so the
// fallback (wedge and base-strip) paths are covered too.
func TestJitterNormOracle(t *testing.T) {
	random, minFallback := 200000, 1000
	if testing.Short() {
		random = 20000
	}
	checked, fallbacks := 0, 0
	check := func(seed int64) {
		t.Helper()
		want := rand.New(rand.NewSource(seed)).NormFloat64()
		if got := jitterNorm(seed); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("jitterNorm(%d) = %v, math/rand draws %v", seed, got, want)
		}
		if x, ok := firstNorm(seed); ok {
			if math.Float64bits(x) != math.Float64bits(want) {
				t.Fatalf("firstNorm(%d) accepted %v, math/rand draws %v", seed, x, want)
			}
		} else {
			fallbacks++
		}
		checked++
	}

	for _, s := range []int64{
		0, 1, -1, lcgMod, -lcgMod, lcgMod - 1, -(lcgMod - 1), lcgMod + 1,
		1 << 31, -(1 << 31), 2 * lcgMod, lcgZero, -lcgZero,
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
	} {
		check(s)
	}

	r := rand.New(rand.NewSource(20260101))
	for _, jseed := range []int64{0, 1, 7, 42, -3, math.MaxInt64, math.MinInt64} {
		for k := 0; k < 200; k++ {
			lo := r.Intn(200000)
			hi := lo + 1 + r.Intn(200000)
			check(jseed ^ (int64(lo)<<20 | int64(hi)))
		}
	}

	for k := 0; k < random; k++ {
		check(int64(r.Uint64()))
	}

	// Rejections are ~2.8% of seeds; find more with the cheap closed form
	// and check each against math/rand.
	for k := 0; k < 100*minFallback && fallbacks < minFallback; k++ {
		s := int64(r.Uint64())
		if _, ok := firstNorm(s); !ok {
			check(s)
		}
	}
	if fallbacks < minFallback {
		t.Fatalf("only %d of %d checked seeds took the fallback, want >= %d", fallbacks, checked, minFallback)
	}
	t.Logf("checked %d seeds, %d through the math/rand fallback", checked, fallbacks)
}
