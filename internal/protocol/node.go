package protocol

import (
	"github.com/p2prepro/locaware/internal/bloom"
	"github.com/p2prepro/locaware/internal/cache"
	"github.com/p2prepro/locaware/internal/keywords"
	"github.com/p2prepro/locaware/internal/netmodel"
	"github.com/p2prepro/locaware/internal/overlay"
)

// Node is one peer's protocol state.
type Node struct {
	ID overlay.PeerID
	// Gid is the node's randomly chosen group id in [0, M) (§3.2).
	Gid int
	// Loc is the node's physical locality.
	Loc netmodel.LocID
	// files is the shared storage: canonical name -> filename. Peers that
	// download a file become providers (§3.1), so this grows during a run.
	files map[string]keywords.Filename
	// RI is the response index (§3.2).
	RI *cache.Index

	// cbf is the local counting Bloom filter over keywords of cached
	// filenames; published is the snapshot most recently announced to
	// neighbours. Only maintained when the behaviour uses Bloom routing.
	cbf       *bloom.Counting
	published *bloom.Filter
	// snapScratch and deltaBuf are reusable gossip-round scratch: the
	// freshly exported bit vector and the changed-position buffer of the
	// announcement delta. Persisting them makes PublishBloom allocation-
	// free in steady state (the remaining per-round allocator after the
	// PR 2 hot-path refactor).
	snapScratch *bloom.Filter
	deltaBuf    []uint32
	// announceBufs double-buffer the snapshot handed to in-flight install
	// events: round r announces one buffer while round r-1's buffer stays
	// frozen, so installs remain correct as long as deliveries land within
	// two gossip periods — a wide margin over the documented
	// period-exceeds-link-latency assumption, without cloning per round.
	// announceGens stamp each buffer's content generation; an install that
	// outlives its generation is dropped rather than applied (see
	// bloomInstallEvent).
	announceBufs [2]*bloom.Filter
	announceGens [2]uint64
	announceFlip int
	// neighborBF holds this node's copies of its neighbours' announced
	// filters (§4.2: "peer n stores its direct neighbors' Gid and BF"),
	// updated by gossip messages after link latency — so routing decisions
	// run on possibly stale local knowledge, exactly as deployed peers
	// would.
	neighborBF map[overlay.PeerID]*bloom.Filter

	// seen suppresses duplicate query deliveries (Gnutella semantics).
	seen map[QueryID]bool
}

// bloomSync wires cache events into the node's counting filter, keeping
// BF_n consistent with RI_n as §4.2 requires ("whenever n overhears a
// response qrf such that f matches Gid_n, n caches qrf in RI_n, and then
// inserts each keyword of f as an element of BF_n"; discarded filenames
// remove their keywords).
type bloomSync struct{ n *Node }

func (b bloomSync) FilenameAdded(f keywords.Filename) {
	if b.n.cbf == nil {
		return
	}
	for i := 0; i < f.K(); i++ {
		b.n.cbf.Add(string(f.KeywordAt(i)))
	}
}

func (b bloomSync) FilenameEvicted(f keywords.Filename) {
	if b.n.cbf == nil {
		return
	}
	for i := 0; i < f.K(); i++ {
		b.n.cbf.Remove(string(f.KeywordAt(i)))
	}
}

// initNode initialises a node in place (nodes live in the network's flat
// state table); useBloom enables the Bloom filter machinery (Locaware
// variants only). The seen set is sized for the steady-state in-flight
// query count — finalisation erases entries, so it does not grow with the
// run length.
func initNode(n *Node, id overlay.PeerID, gid int, loc netmodel.LocID, cacheCfg cache.Config, useBloom bool, bloomBits, bloomK int) {
	n.ID = id
	n.Gid = gid
	n.Loc = loc
	n.files = make(map[string]keywords.Filename, 8)
	n.seen = make(map[QueryID]bool, 8)
	n.RI = cache.New(cacheCfg, bloomSync{n})
	if useBloom {
		n.cbf = bloom.NewCounting(bloomBits, bloomK)
		n.published = bloom.New(bloomBits, bloomK)
		n.snapScratch = bloom.New(bloomBits, bloomK)
		n.neighborBF = make(map[overlay.PeerID]*bloom.Filter)
	}
}

// NeighborBloom returns this node's copy of neighbour nb's announced
// filter, or nil when none has been received yet (new link, pre-gossip, or
// Bloom routing disabled).
func (n *Node) NeighborBloom(nb overlay.PeerID) *bloom.Filter {
	if n.neighborBF == nil {
		return nil
	}
	return n.neighborBF[nb]
}

// setNeighborBloom installs a received announcement by copying it into
// this node's own per-neighbour filter (allocated once per link, reused
// for every later update). Copy-on-install means the sender's announced
// buffer is never retained across rounds, so gossip reuses one buffer per
// peer instead of cloning a snapshot per round — and a neighbour's view
// only ever changes when a gossip message actually arrives, exactly the
// stale-copy semantics of §4.2.
func (n *Node) setNeighborBloom(nb overlay.PeerID, f *bloom.Filter) {
	if n.neighborBF == nil {
		return
	}
	dst := n.neighborBF[nb]
	if dst == nil || dst.CopyFrom(f) != nil {
		n.neighborBF[nb] = f.Clone()
	}
}

// AddFile inserts f into the node's shared storage.
func (n *Node) AddFile(f keywords.Filename) { n.files[f.String()] = f }

// RemoveFile withdraws filename f from the node's shared storage (content
// dynamics: providers deleting files mid-run). It reports whether the file
// was present. Response indexes elsewhere keep advertising the peer until
// their entries age out — exactly the staleness a real withdrawal causes.
func (n *Node) RemoveFile(f keywords.Filename) bool {
	name := f.String()
	if _, ok := n.files[name]; !ok {
		return false
	}
	delete(n.files, name)
	return true
}

// HasFile reports whether the node shares filename f.
func (n *Node) HasFile(f keywords.Filename) bool {
	_, ok := n.files[f.String()]
	return ok
}

// NumFiles returns the size of the node's shared storage.
func (n *Node) NumFiles() int { return len(n.files) }

// storageMatch returns a filename in storage satisfying q, if any. With
// the small per-peer stores of the evaluation a linear scan is the right
// tool; deterministic order comes from scanning for the smallest matching
// name.
func (n *Node) storageMatch(q keywords.Query) (keywords.Filename, bool) {
	var best keywords.Filename
	found := false
	for name, f := range n.files {
		if !f.Matches(q) {
			continue
		}
		if !found || name < best.String() {
			best = f
			found = true
		}
	}
	return best, found
}

// PublishBloom refreshes the node's published Bloom snapshot from its
// counting filter and returns the delta against the previous snapshot
// (what the node would gossip to neighbours, footnote 1). The returned
// delta aliases the node's scratch buffer and is valid until the next
// call; in steady state the whole refresh allocates nothing. The bit view
// changes only when a counter crosses zero, so a filter with no such
// crossing since the last publish returns the empty delta without
// exporting.
func (n *Node) PublishBloom() (bloom.Delta, error) {
	if n.cbf == nil || !n.cbf.TakeChanged() {
		return bloom.Delta{}, nil
	}
	if err := n.cbf.Export(n.snapScratch); err != nil {
		return bloom.Delta{}, err
	}
	d, err := bloom.DiffFiltersInto(n.published, n.snapScratch, n.deltaBuf)
	if err != nil {
		return bloom.Delta{}, err
	}
	n.deltaBuf = d.Flipped[:0]
	if err := n.published.CopyFrom(n.snapScratch); err != nil {
		return bloom.Delta{}, err
	}
	return d, nil
}

// PublishedBloom returns the snapshot neighbours read, or nil when Bloom
// routing is disabled.
func (n *Node) PublishedBloom() *bloom.Filter { return n.published }

// announceSnapshot returns a frozen copy of the published filter to carry
// in this round's install events, plus its content generation. The two
// per-node buffers alternate between rounds (allocated lazily, reused
// forever), so a round's announcement stays intact while the next round's
// is being built and the gossip plane still allocates nothing in steady
// state.
func (n *Node) announceSnapshot() (*bloom.Filter, uint64) {
	i := n.announceFlip
	buf := n.announceBufs[i]
	if buf == nil {
		buf = bloom.New(n.published.M(), n.published.K())
		n.announceBufs[i] = buf
	}
	n.announceFlip = i ^ 1
	n.announceGens[i]++
	// Geometry matches by construction.
	_ = buf.CopyFrom(n.published)
	return buf, n.announceGens[i]
}

// announceGenOf returns the current content generation of one of this
// node's announce buffers (0 for an unknown filter).
func (n *Node) announceGenOf(f *bloom.Filter) uint64 {
	switch f {
	case n.announceBufs[0]:
		return n.announceGens[0]
	case n.announceBufs[1]:
		return n.announceGens[1]
	default:
		return 0
	}
}

// gidOfName maps a canonical filename string to its group id:
// hash(f) mod M (Eq. 1). The FNV-1a hash is inlined (bit-identical to
// hash/fnv's 32-bit variant) so the per-hop routing and caching decisions
// hash without allocating a hasher or a byte-slice copy.
func gidOfName(name string, m int) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= prime32
	}
	return int(h % uint32(m))
}

// gidOfKeyword maps a single keyword to a group id (Dicas-Keys).
func gidOfKeyword(kw keywords.Keyword, m int) int {
	return gidOfName(string(kw), m)
}

// gidOfQuery treats the query's canonical keyword string as if it were the
// filename — the only Gid a requester can compute without knowing the full
// filename. This is exactly the mismatch that "misleads keyword queries"
// in Dicas (§5.2): it equals gidOfName(f) only when the query contains all
// of f's keywords.
func gidOfQuery(q keywords.Query, m int) int {
	return gidOfName(keywords.NewFilename(q.Kws...).String(), m)
}
