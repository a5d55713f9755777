//go:build !race

package dnsserver

import (
	"fmt"
	"net/netip"
	"runtime"
	"testing"
)

// TestZoneHeapObjectsPerOwner: a zone keeps each owner as two heap objects,
// its key and its records' bytes, however many records the owner has, so
// the collector traces two objects per owner rather than several per
// record. Skipped under -race, which instruments allocation.
func TestZoneHeapObjectsPerOwner(t *testing.T) {
	const owners = 20000
	heapObjects := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapObjects
	}
	mx := name("mx1.example")
	before := heapObjects()
	z := NewZoneSet()
	for i := 0; i < owners; i++ {
		n := name(fmt.Sprintf("d%d.example", i)) // garbage once added: the zone keeps bytes
		if z.AddMX(n, 10, mx) != nil || z.AddA(n, netip.AddrFrom4([4]byte{192, 0, byte(i >> 8), byte(i)})) != nil ||
			z.AddTXT(n, "v=spf1 mx -all") != nil {
			t.Fatal("Add refused a record")
		}
	}
	per := float64(heapObjects()-before) / owners
	runtime.KeepAlive(z)
	t.Logf("%.3f heap objects per owner", per)
	if per > 2.1 {
		t.Errorf("the zone holds %.3f heap objects per owner, want at most 2 (and its map's storage)", per)
	}
}
