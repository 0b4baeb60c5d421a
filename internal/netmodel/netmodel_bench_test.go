package netmodel

import (
	"math/rand"
	"testing"
)

// BenchmarkRTT measures the pairwise latency computation (with jitter),
// the per-message hot path of the simulator, over a recurring set of pairs.
func BenchmarkRTT(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	pts := Place(1000, DefaultPlacement(), r)
	m := NewModel(pts, 1000, DefaultLatency(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.RTT(i%1000, (i*7+13)%1000)
	}
}

// rttSink keeps benchmarked RTT results live.
var rttSink float64

// BenchmarkRTTCold measures RTT on a distinct pair every iteration, so no
// per-pair state can be reused between calls.
func BenchmarkRTTCold(b *testing.B) {
	const n = 1 << 16
	r := rand.New(rand.NewSource(1))
	pts := Place(n, DefaultPlacement(), r)
	m := NewModel(pts, 1000, DefaultLatency(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := i % n
		rttSink = m.RTT(a, (a+1+i/n)%n)
	}
}

// BenchmarkLocatorBuild measures full locId assignment for the paper's
// 1000 peers against 4 landmarks.
func BenchmarkLocatorBuild(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	pts := Place(1000, DefaultPlacement(), r)
	m := NewModel(pts, 1000, DefaultLatency(), 2)
	lm := NewLandmarks(4, 1000, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = NewLocator(m, lm)
	}
}

// BenchmarkEncodeOrdering measures Lehmer-code ranking of a landmark
// permutation.
func BenchmarkEncodeOrdering(b *testing.B) {
	perm := []int{2, 0, 3, 1}
	for i := 0; i < b.N; i++ {
		_ = EncodeOrdering(perm)
	}
}
