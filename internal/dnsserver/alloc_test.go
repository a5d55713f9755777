//go:build !race

package dnsserver

import (
	"fmt"
	"net/netip"
	"runtime"
	"strings"
	"testing"

	"spfail/internal/dnsmsg"
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

// TestZoneAddAllocsPerBatch: Add copies a batch's records into one slice
// and writes each run of records whose owners fold alike to the map once,
// so into a map sized in advance a batch of one owner's three records,
// spelled in two cases, makes two allocations, its bytes and the owner's
// key, and a batch of two owners three. Skipped under -race, which
// instruments allocation.
func TestZoneAddAllocsPerBatch(t *testing.T) {
	const batches = 2000
	one := make([][]dnsmsg.Record, batches)
	two := make([][]dnsmsg.Record, batches)
	for i := range one {
		owner := fmt.Sprintf("d%d.example", i)
		one[i] = []dnsmsg.Record{
			MXRecord(name(owner), 10, name("mx1."+owner)),
			AddrRecord(name(fmt.Sprintf("D%d.EXAMPLE", i)), netip.AddrFrom4([4]byte{192, 0, byte(i >> 8), byte(i)})),
			txtAt(owner, "v=spf1 mx -all"),
		}
		two[i] = []dnsmsg.Record{txtAt("a."+owner, "v=spf1 -all"), txtAt("b."+owner, "v=spf1 -all")}
	}
	z := NewZoneSet()
	z.Grow(3*batches + 1)
	if err := z.Add(txtAt("warm.example", strings.Repeat("x", 200))); err != nil { // grow the encoding buffer
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		batches [][]dnsmsg.Record
		want    float64
	}{{"one owner", one, 2}, {"two owners", two, 3}} {
		next := 0
		got := testing.AllocsPerRun(batches-1, func() {
			if err := z.Add(tc.batches[next]...); err != nil {
				t.Fatal(err)
			}
			next++
		})
		if got != tc.want {
			t.Errorf("a batch of %s makes %.0f allocations, want %.0f", tc.name, got, tc.want)
		}
	}
}
