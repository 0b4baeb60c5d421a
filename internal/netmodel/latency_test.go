package netmodel

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// pinModels builds the models behind the pinned RTT table: a 2000-peer
// world with default jitter, the same world with peer 7 degraded 2.5×, the
// same world without jitter, and a 200k-peer world whose pair ids overlap
// the jitter seed's high bits.
func pinModels() map[string]*Model {
	place := func(n int, seed int64) []Point {
		return Place(n, DefaultPlacement(), rand.New(rand.NewSource(seed)))
	}
	pts := place(2000, 42)
	degraded := NewModel(pts, 1000, DefaultLatency(), 42)
	degraded.SetLatencyFactor(7, 2.5)
	return map[string]*Model{
		"default":  NewModel(pts, 1000, DefaultLatency(), 42),
		"degraded": degraded,
		"nojitter": NewModel(pts, 1000, LatencyConfig{MinRTT: 10, MaxRTT: 500}, 42),
		"large":    NewModel(place(200000, 1), 1000, DefaultLatency(), 1),
	}
}

// pinnedRTT records math.Float64bits of RTT(a, b) as computed by the
// seed-and-memoise implementation that the closed-form jitter replaced.
// The last eight "default" rows are pairs whose jitter seed takes the
// math/rand fallback.
var pinnedRTT = []struct {
	model string
	a, b  int
	bits  uint64
}{
	{"default", 617, 1263, 0x406e7a1ad86a0b1d},
	{"default", 290, 1882, 0x40397f56ae63a8fd},
	{"default", 182, 203, 0x40721239752e3dbb},
	{"default", 821, 1344, 0x4056c18468e219ac},
	{"default", 889, 632, 0x406a49c78c670f90},
	{"default", 70, 1689, 0x4061dc69f8471cfe},
	{"default", 890, 269, 0x406cdf842e2eb397},
	{"default", 835, 1515, 0x4073ec6aba2f37a3},
	{"default", 1060, 903, 0x406ee3cbac0faaf2},
	{"default", 714, 1953, 0x40750af88f0ce41e},
	{"default", 1529, 931, 0x4069cce0cdf182f1},
	{"default", 102, 1655, 0x40795083c7a0ff89},
	{"default", 134, 1517, 0x406a0aadde72c945},
	{"default", 1908, 353, 0x4073d62a27563d7c},
	{"default", 1712, 442, 0x4071346cfc97e51c},
	{"default", 1593, 52, 0x4052ebfeb4850727},
	{"default", 1492, 463, 0x406b21d851c16d47},
	{"default", 831, 1366, 0x40650438e93749ee},
	{"default", 1091, 766, 0x40758a9748c78ba6},
	{"default", 1703, 860, 0x405b9088d7e3e06a},
	{"default", 1076, 226, 0x406aaca48d328cf2},
	{"default", 333, 946, 0x4060be107d429593},
	{"default", 347, 639, 0x4056fca8f22d5241},
	{"default", 1333, 1018, 0x4062e2870e96df23},
	{"default", 316, 882, 0x405432c4a90cd39c},
	{"default", 1724, 884, 0x407452f82e2f2c4a},
	{"default", 91, 915, 0x407076ac7e987e48},
	{"default", 87, 223, 0x405816bbf8fc0f30},
	{"default", 855, 1670, 0x406c4983de403cde},
	{"default", 1282, 1350, 0x406937fa8d62bd4a},
	{"default", 1324, 1190, 0x4072642d72d0d0eb},
	{"default", 1541, 1665, 0x406190d9597764bb},
	{"default", 718, 370, 0x407175025ac2b0b7},
	{"default", 795, 36, 0x405f383f67e6dfe8},
	{"default", 371, 1922, 0x4065386383928002},
	{"default", 1295, 404, 0x405b415155c86cd2},
	{"default", 1454, 13, 0x406250312edd1d23},
	{"default", 1371, 591, 0x40785853d010a0b7},
	{"default", 657, 511, 0x404c06701b8ff559},
	{"default", 886, 528, 0x4069f9dc5b0b2f20},
	{"default", 933, 67, 0x4057c0258ee8e305},
	{"default", 1848, 140, 0x405e0676450778fa},
	{"default", 155, 1235, 0x4066e8d770684c4b},
	{"default", 1952, 1941, 0x406dac06fd81dd3b},
	{"default", 1718, 632, 0x406f481d7ff949d5},
	{"default", 1682, 155, 0x40702662c618c642},
	{"default", 1133, 283, 0x406ec9f8a11f0743},
	{"default", 1529, 981, 0x4067ebba847a0658},
	{"default", 32, 227, 0x40505fb08956ed57},
	{"default", 117, 822, 0x4076cc997bc1d0b5},
	{"default", 230, 1613, 0x4041043b33c35bcd},
	{"default", 250, 1753, 0x4073b586e170ea8d},
	{"default", 281, 1970, 0x405921b2151dee2d},
	{"default", 283, 1984, 0x4070cd8dca449c35},
	{"default", 355, 488, 0x4050c40a82744b30},
	{"default", 358, 509, 0x4063a603003fb75a},
	{"degraded", 7, 8, 0x407e3dc046105bd7},
	{"degraded", 9, 7, 0x40803fadf617704a},
	{"degraded", 8, 9, 0x4079d0aaa366926b},
	{"nojitter", 0, 1, 0x4078271260952325},
	{"nojitter", 5, 1999, 0x406734cb085631d1},
	{"nojitter", 1234, 17, 0x407613a2c85f4a50},
	{"nojitter", 1000, 999, 0x4060fd02ba4e856d},
	{"large", 0, 199999, 0x405db2e5dd256107},
	{"large", 150000, 149999, 0x406e126f909d4874},
	{"large", 131072, 3, 0x405637425af3cb29},
	{"large", 199998, 100001, 0x4070a1e986829f68},
}

// TestRTTPinnedBits locks Model.RTT to the exact values of the memoised
// math/rand implementation, including degraded and jitter-free models.
func TestRTTPinnedBits(t *testing.T) {
	models := pinModels()
	for _, p := range pinnedRTT {
		m := models[p.model]
		for _, ab := range [][2]int{{p.a, p.b}, {p.b, p.a}} {
			if got := m.RTT(ab[0], ab[1]); math.Float64bits(got) != p.bits {
				t.Errorf("%s RTT(%d,%d) = %v (%#x), want %v (%#x)", p.model, ab[0], ab[1],
					got, math.Float64bits(got), math.Float64frombits(p.bits), p.bits)
			}
		}
	}
}

// TestRTTConcurrentReaders checks the documented concurrent-reader safety:
// RTT holds no lock and writes no state, so parallel readers must agree
// with a sequential pass (and stay clean under -race).
func TestRTTConcurrentReaders(t *testing.T) {
	m := pinModels()["default"]
	const pairs = 4000
	want := make([]float64, pairs)
	for i := range want {
		want[i] = m.RTT(i%2000, (i*7+13)%2000)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < pairs; k++ {
				i := (k + g*pairs/4) % pairs
				if got := m.RTT(i%2000, (i*7+13)%2000); got != want[i] {
					t.Errorf("reader %d: RTT(%d,%d) = %v, sequential pass %v", g, i%2000, (i*7+13)%2000, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
