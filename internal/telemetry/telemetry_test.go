package telemetry

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	r := New()
	c := r.Counter("x")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("value = %d, want 5", got)
	}
	if r.Counter("x") != c {
		t.Fatal("same name must return the same counter")
	}
}

func TestCounterConcurrent(t *testing.T) {
	r := New()
	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Half the workers resolve the counter by name each time,
			// exercising the registry's read path concurrently.
			for j := 0; j < perWorker; j++ {
				r.Counter("hits").Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits").Value(); got != workers*perWorker {
		t.Fatalf("value = %d, want %d", got, workers*perWorker)
	}
}

func TestGauge(t *testing.T) {
	r := New()
	g := r.Gauge("inflight")
	g.Add(3)
	g.Add(2)
	g.Add(-4)
	if got := g.Value(); got != 1 {
		t.Fatalf("value = %d, want 1", got)
	}
	if got := g.Max(); got != 5 {
		t.Fatalf("max = %d, want 5", got)
	}
	g.Set(7)
	if g.Value() != 7 || g.Max() != 7 {
		t.Fatalf("after set: value=%d max=%d", g.Value(), g.Max())
	}
}

func TestGaugeConcurrentMax(t *testing.T) {
	r := New()
	g := r.Gauge("g")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if g.Value() != 0 {
		t.Fatalf("value = %d, want 0", g.Value())
	}
	if max := g.Max(); max < 1 || max > 8 {
		t.Fatalf("max = %d, want within [1,8]", max)
	}
}

func TestHistogramBasics(t *testing.T) {
	r := New()
	h := r.Histogram("lat")
	samples := []time.Duration{
		500 * time.Nanosecond, // clamps into the first bucket
		time.Millisecond,
		2 * time.Millisecond,
		10 * time.Millisecond,
		time.Second,
	}
	for _, d := range samples {
		h.Record(d)
	}
	s := h.Snapshot()
	if s.Count != int64(len(samples)) {
		t.Fatalf("count = %d, want %d", s.Count, len(samples))
	}
	var sum time.Duration
	for _, d := range samples {
		sum += d
	}
	if got := s.SumSeconds; got != sum.Seconds() {
		t.Errorf("sum = %v, want %v", got, sum.Seconds())
	}
	if s.MinSeconds != samples[0].Seconds() {
		t.Errorf("min = %v, want %v", s.MinSeconds, samples[0].Seconds())
	}
	if s.MaxSeconds != time.Second.Seconds() {
		t.Errorf("max = %v, want 1s", s.MaxSeconds)
	}
	// Quantiles are bucket approximations: p50 must land near the median
	// sample (2ms falls in the (2ms,4ms] ... actually (1.024ms–2.048ms]
	// bucket), p99 near the max.
	if s.P50Seconds <= 0 || s.P50Seconds > 0.01 {
		t.Errorf("p50 = %v, want within (0, 10ms]", s.P50Seconds)
	}
	if s.P99Seconds < 0.5 || s.P99Seconds > 2.1 {
		t.Errorf("p99 = %v, want ~1s bucket", s.P99Seconds)
	}
	if s.P50Seconds > s.P95Seconds || s.P95Seconds > s.P99Seconds {
		t.Errorf("quantiles not monotone: %v %v %v", s.P50Seconds, s.P95Seconds, s.P99Seconds)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := New().Histogram("h")
	h.Record(-time.Second)
	s := h.Snapshot()
	if s.Count != 1 || s.MinSeconds != 0 || s.MaxSeconds != 0 {
		t.Fatalf("snapshot = %+v, want one zero-valued sample", s)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := New().Histogram("h")
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				h.Record(time.Duration(i+1) * time.Millisecond)
			}
		}(i)
	}
	wg.Wait()
	if got := h.Count(); got != workers*per {
		t.Fatalf("count = %d, want %d", got, workers*per)
	}
}

func TestBucketForMonotone(t *testing.T) {
	prev := -1
	for _, d := range []time.Duration{
		0, time.Microsecond, 3 * time.Microsecond, time.Millisecond,
		time.Second, time.Minute, time.Hour, 48 * time.Hour, 365 * 24 * time.Hour,
	} {
		b := bucketFor(d)
		if b < prev {
			t.Fatalf("bucketFor(%v) = %d < previous %d", d, b, prev)
		}
		if b < 0 || b >= histBuckets {
			t.Fatalf("bucketFor(%v) = %d out of range", d, b)
		}
		prev = b
	}
	// Bucket upper bounds must actually contain what bucketFor assigns.
	for i := 0; i < histBuckets-1; i++ {
		if got := bucketFor(bucketUpper(i)); got != i {
			t.Fatalf("bucketFor(upper(%d)) = %d", i, got)
		}
	}
}

func TestSnapshotDeterminism(t *testing.T) {
	r := New()
	r.Counter("a.b").Add(3)
	r.Gauge("g").Set(9)
	r.Histogram("h").Record(5 * time.Millisecond)

	s1, s2 := r.Snapshot(), r.Snapshot()
	var b1, b2 bytes.Buffer
	if err := s1.WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := s2.WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatalf("snapshots differ:\n%s\n%s", b1.String(), b2.String())
	}
	// JSON must round-trip into the same structure.
	var back Snapshot
	if err := json.Unmarshal(b1.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["a.b"] != 3 || back.Gauges["g"].Value != 9 || back.Histograms["h"].Count != 1 {
		t.Fatalf("round-trip mismatch: %+v", back)
	}
}

func TestEvents(t *testing.T) {
	r := New()
	var got []Event
	r.OnEvent(func(ev Event) { got = append(got, ev) })
	r.Emit("batch.done", map[string]any{"n": 5})
	if len(got) != 1 || got[0].Name != "batch.done" || got[0].Fields["n"] != 5 {
		t.Fatalf("events = %+v", got)
	}
}

// TestNilSafety: every operation must be a no-op on a nil registry and on
// the nil metrics it hands out — this is what lets the hot paths record
// unconditionally.
func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("c").Inc()
	r.Counter("c").Add(2)
	r.Gauge("g").Set(1)
	r.Gauge("g").Add(1)
	r.Histogram("h").Record(time.Second)
	r.Emit("e", nil)
	r.OnEvent(func(Event) {})
	if r.Counter("c").Value() != 0 || r.Gauge("g").Value() != 0 || r.Gauge("g").Max() != 0 {
		t.Fatal("nil metrics must read as zero")
	}
	if r.Histogram("h").Count() != 0 {
		t.Fatal("nil histogram must read as zero")
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Fatalf("nil snapshot = %+v", s)
	}
}
