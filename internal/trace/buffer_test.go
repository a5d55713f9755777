package trace

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

// Attribute slab isolation: growing one span's attributes past its arena
// reservation must never clobber a sibling span's attributes.
func TestAttrSlabNeighborsStayIsolated(t *testing.T) {
	var out bytes.Buffer
	tr := New(&out, Options{Seed: 1})
	b := tr.NewBuffer(fixedClock{time.Unix(100, 0).UTC()}, "s01", 0)
	root := b.Root("probe")

	a := root.Child("a", String("a0", "va0"))
	bsp := root.Child("b", String("b0", "vb0"))
	// Push a past its reservation (creation + 2 spare): the append must
	// reallocate rather than overwrite b's slab region.
	for i := 0; i < 8; i++ {
		a.SetAttrs(String("ax", "overflow"))
	}
	a.End()
	bsp.End()
	root.End()
	tr.FlushBuffer(b)

	rec := out.String()
	if !strings.Contains(rec, `"b0":"vb0"`) {
		t.Fatalf("sibling attribute clobbered by overflowing neighbor: %s", rec)
	}
	if strings.Count(rec, "overflow") != 8 {
		t.Fatalf("overflowing span lost attributes: %s", rec)
	}
}

// A late writer racing the flush must never corrupt the output or
// deadlock. Run with -race (CI does) to verify the closed-flag handshake
// is properly synchronized.
func TestFlushRacesLateWriters(t *testing.T) {
	tr := New(&bytes.Buffer{}, Options{Seed: 3})
	clk := fixedClock{time.Unix(100, 0).UTC()}

	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		b := tr.NewBuffer(clk, "race", uint64(i))
		root := b.Root("probe")
		sp := root.Child("work")
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				sp.Event("late", Int("j", j))
				sp.SetAttrs(Int("j", j))
				sp.Child("late.child").End()
			}
		}()
		root.End()
		tr.FlushBuffer(b) // races the writer above
	}
	wg.Wait()
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
}
