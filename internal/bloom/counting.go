package bloom

// Counting is a counting Bloom filter: each position holds a counter rather
// than a bit, so elements can be removed. Locaware's filter "is built
// incrementally as new filenames are inserted in RI and existing ones
// discarded" (§4.2) — discarding requires deletion support, which a peer
// gets by keeping this counting filter locally and exporting its non-zero
// positions as the plain bit vector it gossips.
//
// The counters are allocated on the first Add: most peers of a large world
// never cache a filename, and an empty filter behaves as all zeros.
type Counting struct {
	m      uint32
	k      int
	counts []uint16
	// changed records that the bit view may differ from the one the
	// publisher last took: a counter crossed 0→1 or 1→0, or Reset ran.
	changed bool
}

// NewCounting returns an m-position counting filter with k hash functions;
// k is clamped to [1, 16] exactly as in New.
func NewCounting(m, k int) *Counting {
	if m < 8 {
		m = 8
	}
	if k < 1 {
		k = 1
	}
	if k > maxK {
		k = maxK
	}
	return &Counting{m: uint32(m), k: k}
}

// M returns the number of positions.
func (c *Counting) M() int { return int(c.m) }

// K returns the number of hash functions.
func (c *Counting) K() int { return c.k }

// Add inserts s, incrementing its k counters (saturating).
func (c *Counting) Add(s string) {
	var buf [maxK]uint32
	idx := buf[:c.k]
	indexes(s, c.m, idx)
	if c.counts == nil {
		c.counts = make([]uint16, c.m)
	}
	for _, i := range idx {
		n := c.counts[i]
		if n == ^uint16(0) {
			continue
		}
		if n == 0 {
			c.changed = true
		}
		c.counts[i] = n + 1
	}
}

// Remove deletes one occurrence of s. Removing an element that was never
// added corrupts a counting filter; callers (the response index) guarantee
// add/remove pairing, and Remove defensively floors counters at zero.
func (c *Counting) Remove(s string) {
	if c.counts == nil {
		return
	}
	var buf [maxK]uint32
	idx := buf[:c.k]
	indexes(s, c.m, idx)
	for _, i := range idx {
		n := c.counts[i]
		if n == 0 {
			continue
		}
		if n == 1 {
			c.changed = true
		}
		c.counts[i] = n - 1
	}
}

// Test reports whether s may be present.
func (c *Counting) Test(s string) bool {
	if c.counts == nil {
		return false
	}
	var buf [maxK]uint32
	idx := buf[:c.k]
	indexes(s, c.m, idx)
	for _, i := range idx {
		if c.counts[i] == 0 {
			return false
		}
	}
	return true
}

// Export writes the plain bit-vector view (counter>0 → bit set) into dst,
// which must have matching geometry.
func (c *Counting) Export(dst *Filter) error {
	if dst.m != c.m || dst.k != c.k {
		return ErrMismatch
	}
	dst.Reset()
	for i, n := range c.counts {
		if n > 0 {
			dst.setBit(uint32(i), true)
		}
	}
	return nil
}

// Snapshot allocates and returns the plain bit-vector view.
func (c *Counting) Snapshot() *Filter {
	f := New(int(c.m), c.k)
	_ = c.Export(f) // geometry matches by construction
	return f
}

// Reset zeroes all counters.
func (c *Counting) Reset() {
	for i := range c.counts {
		c.counts[i] = 0
	}
	c.changed = true
}

// TakeChanged reports whether the bit view may have changed since the
// previous TakeChanged call (or since construction) and clears the flag.
// It is the publisher's test: a false result means Export would write the
// same bits as at the previous take. Export and Snapshot leave the flag
// alone.
func (c *Counting) TakeChanged() bool {
	ch := c.changed
	c.changed = false
	return ch
}
