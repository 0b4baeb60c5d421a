package protocol

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/p2prepro/locaware/internal/bloom"
	"github.com/p2prepro/locaware/internal/cache"
)

// TestPublishBloomChangeTracking checks that skipping the export for an
// unchanged filter is exact: every round, PublishBloom's delta equals the
// diff between the previously published view and a full export, across
// random Add/Remove/Reset rounds, counters that cross zero and come back
// within a round, saturated counters, and the first publish of an untouched
// filter.
func TestPublishBloomChangeTracking(t *testing.T) {
	const bits, k = 1200, 6
	var n Node
	initNode(&n, 0, 0, 0, cache.DefaultConfig(), true, bits, k)
	full := bloom.New(bits, k)
	prev := bloom.New(bits, k)
	var want []uint32
	round := 0
	publish := func(what string) {
		t.Helper()
		round++
		if err := prev.CopyFrom(n.published); err != nil {
			t.Fatal(err)
		}
		if err := n.cbf.Export(full); err != nil {
			t.Fatal(err)
		}
		ref, err := bloom.DiffFiltersInto(prev, full, want)
		if err != nil {
			t.Fatal(err)
		}
		want = ref.Flipped[:0]
		got, err := n.PublishBloom()
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got.Flipped) != fmt.Sprint(ref.Flipped) {
			t.Fatalf("round %d (%s): PublishBloom flipped %v, full export flips %v",
				round, what, got.Flipped, ref.Flipped)
		}
		if !n.published.Equal(full) {
			t.Fatalf("round %d (%s): published view differs from full export", round, what)
		}
	}

	publish("untouched")
	n.cbf.Reset()
	publish("reset while empty")

	kw := func(r *rand.Rand) string { return fmt.Sprintf("kw%d", r.Intn(40)) }
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 3000; i++ {
		switch ops := r.Intn(8); {
		case ops == 0:
			// Nothing happens this round.
		case ops == 1:
			// Cross zero and come back: the flag is set, the view is not.
			w := fmt.Sprintf("fresh%d", i)
			n.cbf.Add(w)
			n.cbf.Remove(w)
		case ops == 2 && r.Intn(20) == 0:
			n.cbf.Reset()
		default:
			for j := 0; j < ops; j++ {
				if r.Intn(3) == 0 {
					n.cbf.Remove(kw(r))
				} else {
					n.cbf.Add(kw(r))
				}
			}
		}
		publish("random")
	}

	// Saturation: the counters stop at 65535, so as many removes as the
	// counter can hold bring the element's positions back to zero.
	n.cbf.Reset()
	publish("reset")
	for i := 0; i < 70000; i++ {
		n.cbf.Add("saturated")
	}
	publish("saturated")
	for i := 0; i < 65534; i++ {
		n.cbf.Remove("saturated")
	}
	publish("one short of zero")
	n.cbf.Remove("saturated")
	publish("back to zero")
	if !n.published.Equal(bloom.New(bits, k)) {
		t.Fatal("draining a saturated element left bits published")
	}
}
