//go:build !race

package dnsmsg

import "testing"

// The zero-allocation contract for the probe hot path (ISSUE 4): decoding
// and encoding a representative SPF TXT exchange must not allocate once the
// codec is warm. The race detector instruments allocations, so these
// assertions are compiled out under -race (the behavior itself is covered
// race-enabled by the functional codec tests).

func TestDecodeZeroAllocs(t *testing.T) {
	qb, rb := spfExchangeWire(t)
	d := NewDecoder()
	for i := 0; i < 4; i++ { // warm slots, interner, and RData caches
		if _, err := d.Decode(qb); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Decode(rb); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := d.Decode(qb); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Decode(rb); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Decode of SPF TXT exchange allocates %.1f objects/op, want 0", allocs)
	}
}

func TestEncodeZeroAllocs(t *testing.T) {
	q, r := spfExchangeMessages()
	buf := make([]byte, 0, 1024)
	var err error
	for i := 0; i < 4; i++ { // warm the compressor pool and buffer
		if buf, err = q.Append(buf[:0]); err != nil {
			t.Fatal(err)
		}
		if buf, err = r.Append(buf[:0]); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if buf, err = q.Append(buf[:0]); err != nil {
			t.Fatal(err)
		}
		if buf, err = r.Append(buf[:0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Append of SPF TXT exchange allocates %.1f objects/op, want 0", allocs)
	}
}

// TestParseNameAllocatesOnce: ParseName keeps the slice strings.Split
// returns, whose labels share the input's bytes, instead of copying it,
// so a name costs one allocation however many labels it has.
func TestParseNameAllocatesOnce(t *testing.T) {
	const s = "a.b.example.com"
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := ParseName(s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("ParseName(%q) makes %.1f allocations, want 1", s, allocs)
	}
}

// TestChildAllocatesOnce: Child validates the label slice it builds in
// place, as ParseName does, instead of having NewName copy it again.
func TestChildAllocatesOnce(t *testing.T) {
	apex := MustParseName("example.com")
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := apex.Child("mx1"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("Child makes %.1f allocations, want 1", allocs)
	}
}

// TestPrependAllocatesOnce: Prepend builds the label slice once, whatever
// the number of labels it puts in front.
func TestPrependAllocatesOnce(t *testing.T) {
	base := MustParseName("spf-test.dns-lab.org")
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := base.Prepend("x7k2", "s01"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("Prepend makes %.1f allocations, want 1", allocs)
	}
}
