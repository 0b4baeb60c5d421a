package bloom

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNoFalseNegatives(t *testing.T) {
	f := PaperFilter()
	var added []string
	for i := 0; i < 150; i++ {
		s := fmt.Sprintf("keyword-%d", i)
		f.Add(s)
		added = append(added, s)
	}
	for _, s := range added {
		if !f.Test(s) {
			t.Fatalf("false negative for %q", s)
		}
	}
}

func TestNoFalseNegativesQuick(t *testing.T) {
	prop := func(words []string) bool {
		f := New(1200, 6)
		for _, w := range words {
			f.Add(w)
		}
		for _, w := range words {
			if !f.Test(w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFalsePositiveRateReasonable(t *testing.T) {
	// Paper setting: 1200 bits for 150 keywords gives a usable FPR.
	f := PaperFilter()
	for i := 0; i < 150; i++ {
		f.Add(fmt.Sprintf("kw-%d", i))
	}
	fp := 0
	const probes = 20000
	for i := 0; i < probes; i++ {
		if f.Test(fmt.Sprintf("absent-%d", i)) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > 0.05 {
		t.Fatalf("FPR %.4f too high for paper configuration", rate)
	}
	est := f.EstimatedFPR()
	if est <= 0 || est > 0.1 {
		t.Fatalf("estimated FPR %.4f implausible", est)
	}
}

func TestTestAll(t *testing.T) {
	f := New(1200, 6)
	f.Add("alpha")
	f.Add("beta")
	if !f.TestAll([]string{"alpha", "beta"}) {
		t.Fatal("TestAll false negative")
	}
	if f.TestAll([]string{"alpha", "definitely-not-present-xyzzy-42"}) {
		// Could be a false positive; retry with a fresh improbable word set.
		misses := 0
		for i := 0; i < 100; i++ {
			if !f.TestAll([]string{"alpha", fmt.Sprintf("zzz-%d", i)}) {
				misses++
			}
		}
		if misses == 0 {
			t.Fatal("TestAll never rejects absent keywords")
		}
	}
	if !f.TestAll(nil) {
		t.Fatal("empty query should match vacuously")
	}
}

func TestOptimalK(t *testing.T) {
	if k := OptimalK(1200, 150); k < 4 || k > 8 {
		t.Fatalf("OptimalK(1200,150) = %d, expected ~6", k)
	}
	if OptimalK(0, 10) != 1 || OptimalK(10, 0) != 1 {
		t.Fatal("degenerate OptimalK should be 1")
	}
	if OptimalK(100000, 1) != 16 {
		t.Fatal("OptimalK should cap at 16")
	}
}

func TestGeometryClamps(t *testing.T) {
	f := New(0, 0)
	if f.M() < 8 || f.K() < 1 {
		t.Fatalf("clamps not applied: m=%d k=%d", f.M(), f.K())
	}
	f.Add("x")
	if !f.Test("x") {
		t.Fatal("tiny filter broken")
	}
}

func TestCloneEqualReset(t *testing.T) {
	f := New(1200, 6)
	f.Add("one")
	f.Add("two")
	g := f.Clone()
	if !f.Equal(g) {
		t.Fatal("clone not equal")
	}
	g.Add("three")
	if f.Equal(g) && g.PopCount() != f.PopCount() {
		t.Fatal("clone shares storage")
	}
	f.Reset()
	if f.PopCount() != 0 {
		t.Fatal("reset failed")
	}
	if f.Equal(New(600, 6)) {
		t.Fatal("different geometry reported equal")
	}
	if f.Equal(New(1200, 4)) {
		t.Fatal("different k reported equal")
	}
}

func TestCopyFrom(t *testing.T) {
	f, g := New(1200, 6), New(1200, 6)
	g.Add("payload")
	if err := f.CopyFrom(g); err != nil {
		t.Fatal(err)
	}
	if !f.Equal(g) {
		t.Fatal("CopyFrom incomplete")
	}
	if err := f.CopyFrom(New(600, 6)); err != ErrMismatch {
		t.Fatalf("expected ErrMismatch, got %v", err)
	}
}

func TestBitSetBounds(t *testing.T) {
	f := New(64, 2)
	if f.BitSet(-1) || f.BitSet(64) {
		t.Fatal("out-of-range BitSet should be false")
	}
}

func TestPopCountFillRatio(t *testing.T) {
	f := New(128, 1)
	if f.PopCount() != 0 || f.FillRatio() != 0 {
		t.Fatal("fresh filter not empty")
	}
	f.Add("a")
	if f.PopCount() != 1 {
		t.Fatalf("k=1 add set %d bits", f.PopCount())
	}
}

func TestStringer(t *testing.T) {
	if New(1200, 6).String() == "" {
		t.Fatal("empty String")
	}
}

func TestCountingAddRemove(t *testing.T) {
	c := NewCounting(1200, 6)
	c.Add("word")
	if !c.Test("word") {
		t.Fatal("counting filter false negative")
	}
	c.Remove("word")
	if c.Test("word") {
		t.Fatal("removed element still present")
	}
}

func TestCountingMultiplicity(t *testing.T) {
	c := NewCounting(1200, 6)
	c.Add("dup")
	c.Add("dup")
	c.Remove("dup")
	if !c.Test("dup") {
		t.Fatal("one of two copies removed should leave element present")
	}
	c.Remove("dup")
	if c.Test("dup") {
		t.Fatal("both copies removed, element still present")
	}
}

func TestCountingRemoveAbsentIsSafe(t *testing.T) {
	c := NewCounting(1200, 6)
	c.Remove("never-added") // must not underflow
	c.Add("x")
	if !c.Test("x") {
		t.Fatal("filter corrupted by spurious remove")
	}
}

func TestCountingExportSnapshot(t *testing.T) {
	c := NewCounting(1200, 6)
	words := []string{"a", "b", "c", "d"}
	for _, w := range words {
		c.Add(w)
	}
	snap := c.Snapshot()
	for _, w := range words {
		if !snap.Test(w) {
			t.Fatalf("snapshot missing %q", w)
		}
	}
	c.Remove("a")
	f := New(1200, 6)
	if err := c.Export(f); err != nil {
		t.Fatal(err)
	}
	if f.Test("a") && !anyShareBits("a", words) {
		t.Fatal("export retains removed element")
	}
	if err := c.Export(New(600, 6)); err != ErrMismatch {
		t.Fatalf("geometry mismatch not detected: %v", err)
	}
	c.Reset()
	if c.Test("b") {
		t.Fatal("reset failed")
	}
	if c.M() != 1200 || c.K() != 6 {
		t.Fatal("accessors wrong")
	}
}

// anyShareBits reports whether w's bit positions are fully covered by the
// other words' positions (making a residual true Test unavoidable).
func anyShareBits(w string, words []string) bool {
	cover := map[uint32]bool{}
	idx := make([]uint32, 6)
	for _, o := range words {
		if o == w {
			continue
		}
		indexes(o, 1200, idx)
		for _, i := range idx {
			cover[i] = true
		}
	}
	indexes(w, 1200, idx)
	for _, i := range idx {
		if !cover[i] {
			return false
		}
	}
	return true
}

// TestCountingLazyCounters checks that a filter that was never added to
// behaves as all zeros, and that its counters appear on the first Add.
func TestCountingLazyCounters(t *testing.T) {
	c := NewCounting(1200, 6)
	if c.counts != nil {
		t.Fatal("counters allocated before the first Add")
	}
	if c.Test("x") {
		t.Fatal("empty filter reports a member")
	}
	c.Remove("x")
	c.Reset()
	if c.counts != nil {
		t.Fatal("Remove or Reset allocated counters")
	}
	f := New(1200, 6)
	f.Add("stale")
	if err := c.Export(f); err != nil || f.PopCount() != 0 {
		t.Fatalf("empty export: err %v, %d bits set", err, f.PopCount())
	}
	c.Add("x")
	if len(c.counts) != 1200 || !c.Test("x") {
		t.Fatal("first Add did not allocate and set the counters")
	}
}

// TestCountingTakeChanged checks when the publisher's change flag is set:
// only by counters crossing zero and by Reset, never cleared by Export or
// Snapshot.
func TestCountingTakeChanged(t *testing.T) {
	c := NewCounting(1200, 6)
	if c.TakeChanged() {
		t.Fatal("fresh filter reports a change")
	}
	c.Add("a")
	_ = c.Snapshot()
	if err := c.Export(New(1200, 6)); err != nil {
		t.Fatal(err)
	}
	if !c.TakeChanged() {
		t.Fatal("0→1 crossing not recorded, or cleared by Export/Snapshot")
	}
	if c.TakeChanged() {
		t.Fatal("TakeChanged did not clear the flag")
	}
	c.Add("a")
	c.Remove("a")
	if c.TakeChanged() {
		t.Fatal("counter moves that cross no zero recorded as a change")
	}
	c.Remove("a")
	if !c.TakeChanged() {
		t.Fatal("1→0 crossing not recorded")
	}
	c.Remove("a")
	if c.TakeChanged() {
		t.Fatal("remove at zero recorded as a change")
	}
	c.Reset()
	if !c.TakeChanged() {
		t.Fatal("Reset not recorded")
	}
}

func TestCountingGeometryClamps(t *testing.T) {
	c := NewCounting(0, 0)
	if c.M() < 8 || c.K() < 1 {
		t.Fatal("clamps not applied")
	}
}

func TestCountingPlainAgreement(t *testing.T) {
	// Counting filter's snapshot must agree with a plain filter fed the same
	// live set, across random add/remove sequences.
	r := rand.New(rand.NewSource(4))
	c := NewCounting(1200, 6)
	live := map[string]int{}
	for op := 0; op < 2000; op++ {
		w := fmt.Sprintf("w%d", r.Intn(80))
		if r.Float64() < 0.6 {
			c.Add(w)
			live[w]++
		} else if live[w] > 0 {
			c.Remove(w)
			live[w]--
		}
	}
	plain := New(1200, 6)
	for w, n := range live {
		if n > 0 {
			plain.Add(w)
		}
	}
	if !c.Snapshot().Equal(plain) {
		t.Fatal("counting snapshot diverges from plain filter of live set")
	}
}

func TestDeltaRoundTrip(t *testing.T) {
	oldF := New(1200, 6)
	oldF.Add("alpha")
	newF := oldF.Clone()
	newF.Add("beta")
	newF.Add("gamma")

	d, err := DiffFilters(oldF, newF)
	if err != nil {
		t.Fatal(err)
	}
	if d.Empty() {
		t.Fatal("delta unexpectedly empty")
	}
	if err := d.Apply(oldF); err != nil {
		t.Fatal(err)
	}
	if !oldF.Equal(newF) {
		t.Fatal("applying delta did not reproduce new filter")
	}
	// XOR semantics: applying again undoes.
	if err := d.Apply(oldF); err != nil {
		t.Fatal(err)
	}
	if oldF.Equal(newF) {
		t.Fatal("double apply should undo")
	}
}

func TestDeltaSizeBitsPaperBound(t *testing.T) {
	// Footnote 1: one filename (3 keywords) flips at most 3k bits; with the
	// paper's 1200-bit vector each position costs 11 bits.
	oldF := PaperFilter()
	newF := oldF.Clone()
	for _, kw := range []string{"one", "two", "three"} {
		newF.Add(kw)
	}
	d, err := DiffFilters(oldF, newF)
	if err != nil {
		t.Fatal(err)
	}
	perPos := 11 // ceil(log2(1200))
	if d.SizeBits() != len(d.Flipped)*perPos {
		t.Fatalf("SizeBits = %d, want %d", d.SizeBits(), len(d.Flipped)*perPos)
	}
	if len(d.Flipped) > 3*oldF.K() {
		t.Fatalf("one filename flipped %d bits, more than 3k=%d", len(d.Flipped), 3*oldF.K())
	}
}

func TestDeltaEmpty(t *testing.T) {
	f := New(1200, 6)
	d, err := DiffFilters(f, f.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if !d.Empty() || d.SizeBits() != 0 {
		t.Fatal("identical filters should give empty delta")
	}
	if err := d.Apply(f); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaMismatch(t *testing.T) {
	if _, err := DiffFilters(New(1200, 6), New(600, 6)); err != ErrMismatch {
		t.Fatalf("size mismatch not detected: %v", err)
	}
	d := Delta{M: 1200, Flipped: []uint32{3}}
	if err := d.Apply(New(600, 6)); err != ErrMismatch {
		t.Fatalf("apply mismatch not detected: %v", err)
	}
	bad := Delta{M: 1200, Flipped: []uint32{5000}}
	if err := bad.Apply(New(1200, 6)); err != ErrMismatch {
		t.Fatalf("out-of-range position not detected: %v", err)
	}
}

func TestDeltaQuickProperty(t *testing.T) {
	// Property: for any two word sets, diff+apply transforms old into new.
	prop := func(oldWords, addWords []string) bool {
		oldF := New(1200, 6)
		for _, w := range oldWords {
			oldF.Add(w)
		}
		newF := oldF.Clone()
		for _, w := range addWords {
			newF.Add(w)
		}
		d, err := DiffFilters(oldF, newF)
		if err != nil {
			return false
		}
		cp := oldF.Clone()
		if err := d.Apply(cp); err != nil {
			return false
		}
		return cp.Equal(newF)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHashPairStability(t *testing.T) {
	a1, a2 := hashPair("stable")
	b1, b2 := hashPair("stable")
	if a1 != b1 || a2 != b2 {
		t.Fatal("hashPair not deterministic")
	}
	c1, c2 := hashPair("different")
	if a1 == c1 && a2 == c2 {
		t.Fatal("hashPair collision on trivial input")
	}
}

// TestHotOpsZeroAlloc locks the stack-allocated hashing path: membership
// tests and counter updates run on the simulator's per-hop routing path
// and must not allocate.
func TestHotOpsZeroAlloc(t *testing.T) {
	f := New(1200, 6)
	c := NewCounting(1200, 6)
	f.Add("locaware")
	c.Add("locaware")
	if n := testing.AllocsPerRun(200, func() { f.Test("locaware") }); n != 0 {
		t.Fatalf("Filter.Test allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(200, func() { f.Add("locaware") }); n != 0 {
		t.Fatalf("Filter.Add allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(200, func() { c.Add("x"); c.Remove("x") }); n != 0 {
		t.Fatalf("Counting.Add/Remove allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(200, func() { c.Test("locaware") }); n != 0 {
		t.Fatalf("Counting.Test allocates %.1f/op", n)
	}
}

// TestDiffFiltersInto checks buffer reuse and equivalence with DiffFilters.
func TestDiffFiltersInto(t *testing.T) {
	a, b := New(256, 4), New(256, 4)
	b.Add("alpha")
	b.Add("beta")
	want, err := DiffFilters(a, b)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]uint32, 0, 64)
	got, err := DiffFiltersInto(a, b, buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Flipped) != len(want.Flipped) {
		t.Fatalf("Into diff = %v, want %v", got.Flipped, want.Flipped)
	}
	for i := range got.Flipped {
		if got.Flipped[i] != want.Flipped[i] {
			t.Fatalf("Into diff = %v, want %v", got.Flipped, want.Flipped)
		}
	}
	if &got.Flipped[0] != &buf[:1][0] {
		t.Fatal("DiffFiltersInto did not reuse the caller's buffer")
	}
	if _, err := DiffFiltersInto(a, New(128, 4), buf); err != ErrMismatch {
		t.Fatalf("geometry mismatch not reported: %v", err)
	}
	// Steady-state reuse does not allocate once the buffer has capacity.
	if n := testing.AllocsPerRun(100, func() {
		d, _ := DiffFiltersInto(a, b, buf)
		buf = d.Flipped[:0]
	}); n != 0 {
		t.Fatalf("buffered diff allocates %.1f/op", n)
	}
}

// TestKCapped locks the maxK bound the stack-array fast path relies on.
func TestKCapped(t *testing.T) {
	if f := New(4096, 99); f.K() != 16 {
		t.Fatalf("Filter k = %d, want capped at 16", f.K())
	}
	if c := NewCounting(4096, 99); c.K() != 16 {
		t.Fatalf("Counting k = %d, want capped at 16", c.K())
	}
}
