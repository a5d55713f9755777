package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"

	"spfail/internal/dnsserver"
)

// Collector is a dnsserver.Sink that indexes inbound queries by the probe
// id embedded in their names, so each probe's evidence can be retrieved in
// O(1) regardless of campaign size.
type Collector struct {
	zone *dnsserver.SPFTestZone

	mu    sync.Mutex
	byID  map[string][]dnsserver.QueryEvent
	total int
}

// NewCollector builds a collector for the given zone.
func NewCollector(zone *dnsserver.SPFTestZone) *Collector {
	return &Collector{zone: zone, byID: make(map[string][]dnsserver.QueryEvent)}
}

// Observe implements dnsserver.Sink.
func (c *Collector) Observe(ev dnsserver.QueryEvent) {
	id, _, ok := c.zone.ExtractIDSuite(ev.Name)
	if !ok {
		return
	}
	c.mu.Lock()
	c.byID[id] = append(c.byID[id], ev)
	c.total++
	c.mu.Unlock()
}

// QueriesFor returns a copy of the events recorded for a probe id.
func (c *Collector) QueriesFor(id string) []dnsserver.QueryEvent {
	return c.AppendQueriesFor(nil, id)
}

// AppendQueriesFor appends the events recorded for a probe id to dst and
// returns the extended slice, letting hot callers reuse one scratch buffer
// across probes instead of allocating a copy per transaction.
func (c *Collector) AppendQueriesFor(dst []dnsserver.QueryEvent, id string) []dnsserver.QueryEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append(dst, c.byID[id]...)
}

// Total returns the number of in-zone queries observed.
func (c *Collector) Total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// Forget releases the evidence for a probe id (campaigns drop evidence
// once an outcome is recorded, bounding memory across hundreds of
// thousands of probes).
func (c *Collector) Forget(id string) {
	c.mu.Lock()
	delete(c.byID, id)
	c.mu.Unlock()
}

// LabelAllocator hands out the unique 4–5 character alphanumeric labels
// that tie each probed server to the DNS queries it performs (paper §5.1).
// Labels also defeat resolver caching: every probe's names are globally
// fresh.
type LabelAllocator struct {
	mu   sync.Mutex
	rng  *rand.Rand
	used map[string]bool
}

// NewLabelAllocator builds an allocator seeded deterministically.
func NewLabelAllocator(seed int64) *LabelAllocator {
	return &LabelAllocator{
		rng:  rand.New(rand.NewSource(seed)),
		used: make(map[string]bool),
	}
}

const labelAlphabet = "abcdefghijklmnopqrstuvwxyz0123456789"

// Next returns a fresh label: 4 characters until the space gets crowded,
// then 5.
func (a *LabelAllocator) Next() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	length := 4
	if len(a.used) > 800_000 { // 36^4 ≈ 1.68M; switch early to avoid loops
		length = 5
	}
	for {
		b := make([]byte, length)
		// First character alphabetic so labels never look numeric-only.
		b[0] = labelAlphabet[a.rng.Intn(26)]
		for i := 1; i < length; i++ {
			b[i] = labelAlphabet[a.rng.Intn(len(labelAlphabet))]
		}
		s := string(b)
		if !a.used[s] {
			a.used[s] = true
			return s
		}
	}
}

// NewSuiteLabel derives a short suite label from a test-suite counter.
func NewSuiteLabel(n int) string { return fmt.Sprintf("s%02d", n) }

// LabelSource hands out probe transaction labels. *LabelAllocator and
// *LabelStream both satisfy it.
type LabelSource interface {
	Next() string
}

// LabelStream is a per-probe label source: after Reset(index), the n-th
// call to Next yields the label for (seed, probe index, n), derived through
// a seeded 40-bit Feistel permutation so labels are globally unique within
// a campaign by construction yet look random. Unlike LabelAllocator.Next,
// the stream does not depend on how probe shards interleave their draws
// from a shared source — the property traced campaigns need for
// byte-identical same-seed output. fallback serves the (practically
// unreachable) case of a probe running more than 256 transactions.
// Streams are not safe for concurrent use; campaigns keep one per shard.
type LabelStream struct {
	seed     int64
	index    uint64
	ord      uint64
	fallback *LabelAllocator
}

// NewLabelStream builds a stream positioned at probe index 0.
func NewLabelStream(seed int64, fallback *LabelAllocator) *LabelStream {
	return &LabelStream{seed: seed, fallback: fallback}
}

// Reset repositions the stream at the start of a probe's label sequence.
func (s *LabelStream) Reset(index uint64) {
	s.index, s.ord = index, 0
}

// Next returns the stream's next label.
func (s *LabelStream) Next() string {
	if s.ord >= 256 || s.index >= 1<<32 {
		return s.fallback.Next()
	}
	n := s.index<<8 | s.ord
	s.ord++
	return deterministicLabel(s.seed, n)
}

// deterministicLabel encodes the permuted 40-bit value as a fixed-width
// 8-character label: one alphabetic lead character plus seven base-36
// digits. Both the permutation and the encoding are injective, so distinct
// (index, ord) pairs can never collide.
func deterministicLabel(seed int64, n uint64) string {
	v := feistel40(seed, n)
	var b [8]byte
	b[0] = labelAlphabet[v%26]
	v /= 26
	for i := 7; i >= 1; i-- {
		b[i] = labelAlphabet[v%36]
		v /= 36
	}
	return string(b[:])
}

// feistel40 is a 4-round Feistel permutation of the 40-bit input, keyed by
// seed. Bijective for any seed, which is what makes the labels unique.
func feistel40(seed int64, n uint64) uint64 {
	const mask = 0xFFFFF // 20-bit halves
	l, r := (n>>20)&mask, n&mask
	for round := 0; round < 4; round++ {
		f := labelRound(seed, round, r)
		l, r = r, (l^f)&mask
	}
	return l<<20 | r
}

// labelRound mixes (seed, round, half) with FNV-1a into a 20-bit value.
func labelRound(seed int64, round int, half uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(uint64(seed) >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte{byte(round)})
	for i := 0; i < 8; i++ {
		b[i] = byte(half >> (8 * i))
	}
	h.Write(b[:])
	return h.Sum64() & 0xFFFFF
}
