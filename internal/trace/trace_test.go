package trace

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"spfail/internal/clock"
)

// fixedClock always returns the same instant, so span content depends only
// on the recorded structure — handy for byte-comparison tests.
type fixedClock struct{ t time.Time }

func (f fixedClock) Now() time.Time { return f.t }

func (f fixedClock) Sleep(context.Context, time.Duration) error { return nil }

func (f fixedClock) After(time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	ch <- f.t
	return ch
}

func t0() time.Time { return time.Date(2021, 10, 11, 0, 0, 0, 0, time.UTC) }

func writeSampleTrace(t *testing.T, tr *Tracer, clk clock.Clock) {
	t.Helper()
	b := tr.ProbeBuffer(clk, "s01", 42)
	if b == nil {
		t.Fatal("ProbeBuffer returned nil for unsampled tracer")
	}
	root := b.Root("probe", String("addr", "192.0.2.1"))
	smtp := root.Child("smtp.attempt", Int("attempt", 1))
	smtp.Event("smtp.cmd", String("verb", "MAIL"), Int("code", 250))
	smtp.End()
	root.SetAttrs(String("status", "vulnerable"))
	root.End()
	tr.FlushBuffer(b)
}

func TestSameSeedProducesIdenticalJSONL(t *testing.T) {
	clk := fixedClock{t0()}
	var a, b bytes.Buffer
	ta := New(&a, Options{Seed: 7})
	tb := New(&b, Options{Seed: 7})
	writeSampleTrace(t, ta, clk)
	writeSampleTrace(t, tb, clk)
	if a.Len() == 0 {
		t.Fatal("no trace output")
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("same-seed traces differ:\n%s\n---\n%s", a.String(), b.String())
	}
}

func TestDifferentSeedChangesTraceID(t *testing.T) {
	clk := fixedClock{t0()}
	a := New(&bytes.Buffer{}, Options{Seed: 1}).NewBuffer(clk, "s01", 3)
	b := New(&bytes.Buffer{}, Options{Seed: 2}).NewBuffer(clk, "s01", 3)
	if a.TraceID() == b.TraceID() {
		t.Fatalf("trace IDs should differ across seeds: %s", a.TraceID())
	}
	if !strings.HasPrefix(a.TraceID(), "s01-000003-") {
		t.Fatalf("unexpected trace ID shape: %s", a.TraceID())
	}
}

func TestSamplingIsDeterministicAndFractional(t *testing.T) {
	tr := New(&bytes.Buffer{}, Options{Seed: 9, Sample: 0.25})
	kept := 0
	for i := uint64(0); i < 4000; i++ {
		s1 := tr.Sampled("s01", i)
		s2 := tr.Sampled("s01", i)
		if s1 != s2 {
			t.Fatalf("sampling decision unstable for index %d", i)
		}
		if s1 {
			kept++
		}
	}
	if kept < 800 || kept > 1200 {
		t.Fatalf("expected ~1000/4000 sampled at 0.25, got %d", kept)
	}
	if tr.ProbeBuffer(fixedClock{t0()}, "s01", firstUnsampled(tr)) != nil {
		t.Fatal("ProbeBuffer should be nil for an unsampled probe")
	}
}

func firstUnsampled(tr *Tracer) uint64 {
	for i := uint64(0); ; i++ {
		if !tr.Sampled("s01", i) {
			return i
		}
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if tr.Sampled("x", 1) {
		t.Fatal("nil tracer should sample nothing")
	}
	b := tr.ProbeBuffer(fixedClock{t0()}, "x", 1)
	if b != nil {
		t.Fatal("nil tracer should hand out nil buffers")
	}
	sp := b.Root("root")
	if sp != nil {
		t.Fatal("nil buffer should hand out nil spans")
	}
	sp.SetAttrs(String("k", "v"))
	sp.Event("evt")
	sp.End()
	if c := sp.Child("child"); c != nil {
		t.Fatal("nil span should hand out nil children")
	}
	release := sp.Adopt("192.0.2.1")
	release()
	tr.FlushBuffer(b)
	tr.HostSpan("192.0.2.1").Event("evt")
	if tr.HostSpan("192.0.2.1") != nil {
		t.Fatal("nil tracer should route no hosts")
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	ctx, sp2 := StartSpan(context.Background(), "noop")
	if sp2 != nil || ctx != context.Background() {
		t.Fatal("StartSpan on a bare context must be a no-op")
	}
}

func TestDisabledPathDoesNotAllocate(t *testing.T) {
	ctx := context.Background()
	if n := testing.AllocsPerRun(1000, func() {
		if sp := SpanFromContext(ctx); sp != nil {
			t.Fatal("unexpected span")
		}
		_, sp := StartSpan(ctx, "noop")
		sp.End()
	}); n != 0 {
		t.Fatalf("disabled trace path allocates %v allocs/op, want 0", n)
	}
}

func TestHostRoutingIsLIFO(t *testing.T) {
	tr := New(&bytes.Buffer{}, Options{Seed: 1})
	b := tr.NewBuffer(fixedClock{t0()}, "s01", 0)
	outer := b.Root("outer")
	inner := outer.Child("inner")

	releaseOuter := outer.Adopt("192.0.2.9")
	releaseInner := inner.Adopt("192.0.2.9")
	if got := tr.HostSpan("192.0.2.9"); got != inner {
		t.Fatal("inner adoption should shadow outer")
	}
	releaseInner()
	if got := tr.HostSpan("192.0.2.9"); got != outer {
		t.Fatal("release should restore the previous route")
	}
	releaseOuter()
	if got := tr.HostSpan("192.0.2.9"); got != nil {
		t.Fatal("final release should clear the route")
	}
	tr.HostSpan("192.0.2.9").Event("dropped") // routes to nobody; must not panic
}

func TestClosedBufferDropsLateWrites(t *testing.T) {
	var out bytes.Buffer
	tr := New(&out, Options{Seed: 1})
	b := tr.NewBuffer(fixedClock{t0()}, "s01", 0)
	root := b.Root("probe")
	tr.FlushBuffer(b)
	before := out.String()

	root.Event("late") // must be dropped
	root.SetAttrs(String("late", "x"))
	if c := root.Child("late-child"); c != nil {
		t.Fatal("closed buffer should refuse new spans")
	}
	tr.FlushBuffer(b) // idempotent
	if out.String() != before {
		t.Fatal("writes after flush changed the output")
	}
	recs, err := ReadAll(strings.NewReader(out.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Name != "probe" {
		t.Fatalf("unexpected records: %+v", recs)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	var out bytes.Buffer
	tr := New(&out, Options{Seed: 7})
	writeSampleTrace(t, tr, fixedClock{t0()})
	recs, err := ReadAll(&out)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("want 3 records, got %d", len(recs))
	}
	root := recs[0]
	if root.Parent != 0 || root.Name != "probe" || root.Attrs["addr"] != "192.0.2.1" || root.Attrs["status"] != "vulnerable" {
		t.Fatalf("bad root record: %+v", root)
	}
	if recs[1].Parent != root.Span || recs[1].Name != "smtp.attempt" {
		t.Fatalf("bad child record: %+v", recs[1])
	}
	evt := recs[2]
	if evt.Parent != recs[1].Span || !evt.Start.Equal(evt.End) || evt.Attrs["verb"] != "MAIL" {
		t.Fatalf("bad event record: %+v", evt)
	}
	if !root.Start.Equal(t0()) {
		t.Fatalf("timestamp should come from the injected clock: %v", root.Start)
	}
}

// TestConcurrentBuffersDoNotShareState is the race-detector guard for the
// per-shard buffer invariant: many goroutines writing to distinct buffers
// (plus host events routed to them) must not trip the race detector.
func TestConcurrentBuffersDoNotShareState(t *testing.T) {
	var out bytes.Buffer
	tr := New(&out, Options{Seed: 3})
	clk := fixedClock{t0()}
	var wg sync.WaitGroup
	bufs := make([]*Buffer, 16)
	for i := range bufs {
		bufs[i] = tr.NewBuffer(clk, "race", uint64(i))
	}
	for i, b := range bufs {
		wg.Add(1)
		go func(i int, b *Buffer) {
			defer wg.Done()
			root := b.Root("probe", Int("shard", i))
			host := "192.0.2." + string(rune('0'+i%10))
			release := root.Adopt(host)
			for j := 0; j < 50; j++ {
				sp := root.Child("op", Int("j", j))
				tr.HostSpan(host).Event("hostev", Int("j", j))
				sp.End()
			}
			release()
			root.End()
		}(i, b)
	}
	wg.Wait()
	for _, b := range bufs {
		tr.FlushBuffer(b)
	}
	recs, err := ReadAll(&out)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 16*(1+50+50) {
		t.Fatalf("want %d records, got %d", 16*101, len(recs))
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
}
