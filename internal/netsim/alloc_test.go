//go:build !race

package netsim

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// TestUDPExchangeAllocBytes gates what one DNS-style exchange costs the
// fabric: dial a UDP endpoint, write a query, let the server read it and
// reply, read the reply, close. Every resolver attempt pays this, so an
// endpoint that preallocates for traffic it never receives shows here.
// Skipped under -race, which instruments allocation.
func TestUDPExchangeAllocBytes(t *testing.T) {
	f := NewFabric()
	srv, err := f.Host("192.0.2.53").ListenPacket("udp", ":53")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli := f.Host("198.51.100.1")
	query := make([]byte, 40)
	sbuf := make([]byte, 512)
	cbuf := make([]byte, 512)
	exchange := func() {
		c, err := cli.DialContext(context.Background(), "udp", "192.0.2.53:53")
		if err != nil {
			t.Fatal(err)
		}
		c.SetDeadline(time.Now().Add(time.Second))
		if _, err := c.Write(query); err != nil {
			t.Fatal(err)
		}
		n, from, err := srv.ReadFrom(sbuf)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.WriteTo(sbuf[:n], from); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Read(cbuf); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	for i := 0; i < 100; i++ {
		exchange() // grow the endpoint map and the server inbox once
	}
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		exchange()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d B, %.1f allocs per exchange", per, float64(after.Mallocs-before.Mallocs)/runs)
	if per >= 1024 {
		t.Fatalf("one UDP dial+write+read+close allocates %d B, want < 1 KiB", per)
	}
}
