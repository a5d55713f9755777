package obs

import (
	"errors"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"spfail/internal/clock"
	"spfail/internal/telemetry"
)

func TestCollectorSamplePublishes(t *testing.T) {
	reg := telemetry.New()
	c := NewCollector(reg, clock.Real{}, time.Second)
	runtime.GC() // guarantee at least one cycle and some pause samples
	c.Sample()

	snap := reg.Snapshot()
	for _, gauge := range []string{
		"runtime.heap.live_bytes",
		"runtime.heap.goal_bytes",
		"runtime.mem.rss_bytes",
		"runtime.mem.limit_bytes",
		"runtime.sched.goroutines",
	} {
		g, ok := snap.Gauges[gauge]
		if !ok {
			t.Fatalf("gauge %s not published; have %v", gauge, snap.Gauges)
		}
		if g.Value <= 0 {
			t.Errorf("gauge %s = %d, want > 0", gauge, g.Value)
		}
	}
	if got, want := snap.Gauges["runtime.mem.limit_bytes"].Value, debug.SetMemoryLimit(-1); got != want {
		t.Errorf("runtime.mem.limit_bytes = %d, want the runtime's limit %d", got, want)
	}
	if got := snap.Counters["runtime.obs.samples"]; got != 1 {
		t.Errorf("runtime.obs.samples = %d, want 1", got)
	}
	if got := snap.Counters["runtime.gc.cycles"]; got < 1 {
		t.Errorf("runtime.gc.cycles = %d, want ≥ 1 after a forced GC", got)
	}
	if got := snap.Counters["runtime.heap.alloc_bytes"]; got <= 0 {
		t.Errorf("runtime.heap.alloc_bytes = %d, want > 0", got)
	}
	if h, ok := snap.Histograms["runtime.gc.pause"]; !ok || h.Count < 1 {
		t.Errorf("runtime.gc.pause count = %+v, want ≥ 1 observation", h)
	}
	if c.RSS() <= 0 {
		t.Errorf("RSS() = %d, want > 0", c.RSS())
	}
	if c.PeakRSS() < c.RSS() {
		t.Errorf("PeakRSS() = %d < RSS() %d", c.PeakRSS(), c.RSS())
	}
}

func TestCollectorStartStop(t *testing.T) {
	reg := telemetry.New()
	c := NewCollector(reg, clock.Real{}, time.Millisecond)
	c.Start()
	c.Start() // idempotent
	deadline := clock.Real{}.Now().Add(5 * time.Second)
	for reg.Counter("runtime.obs.samples").Value() < 2 {
		if (clock.Real{}).Now().After(deadline) {
			t.Fatal("collector loop produced no samples")
		}
		runtime.Gosched()
	}
	c.Stop()
	after := reg.Counter("runtime.obs.samples").Value()
	if after < 3 { // ≥2 from the loop plus the final Stop sample
		t.Fatalf("samples after Stop = %d, want ≥ 3", after)
	}
	c.Stop() // idempotent
}

func TestStageProbeDeltas(t *testing.T) {
	sim := clock.NewSim(time.Unix(0, 0))
	defer sim.Close()
	p := BeginStage(sim, nil)
	sim.Advance(42 * time.Second)
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 64<<10))
	}
	runtime.GC()
	res := p.End("initial")
	_ = sink
	if res.Stage != "initial" {
		t.Errorf("Stage = %q", res.Stage)
	}
	if res.AllocBytes < 64*(64<<10) {
		t.Errorf("AllocBytes = %d, want ≥ %d", res.AllocBytes, 64*(64<<10))
	}
	if res.AllocObjects == 0 {
		t.Error("AllocObjects = 0, want > 0")
	}
	if res.GCCycles < 1 {
		t.Errorf("GCCycles = %d, want ≥ 1 after forced GC", res.GCCycles)
	}
	if res.Virtual != 42*time.Second {
		t.Errorf("Virtual = %v, want 42s", res.Virtual)
	}
	if res.Wall < 0 {
		t.Errorf("Wall = %v, want ≥ 0", res.Wall)
	}
	if res.PeakRSS <= 0 {
		t.Errorf("PeakRSS = %d, want > 0", res.PeakRSS)
	}
}

func TestAllocSamplerDelta(t *testing.T) {
	var s AllocSampler
	before := s.Sample()
	buf := make([]byte, 1<<20)
	_ = buf
	after := s.Sample()
	d := after.Sub(before)
	if d.Bytes < 1<<20 {
		t.Errorf("alloc delta = %d bytes, want ≥ 1MiB", d.Bytes)
	}
	if d.Objects == 0 {
		t.Error("alloc delta objects = 0")
	}
}

func TestCollectorHardLimit(t *testing.T) {
	reg := telemetry.New()
	c := NewCollector(reg, clock.Real{}, time.Second)
	var hardErrs []error
	c.LimitRSS(2, func(err error) { hardErrs = append(hardErrs, err) })

	c.Sample()
	c.Sample() // the hook fires once

	if len(hardErrs) != 1 {
		t.Fatalf("hard hook called %d times, want 1", len(hardErrs))
	}
	hardErr := hardErrs[0]
	if !errors.Is(hardErr, ErrBudgetExceeded) {
		t.Errorf("hard error %v does not wrap ErrBudgetExceeded", hardErr)
	}
	var be *BudgetError
	if !errors.As(hardErr, &be) || be.Limit != 2 || be.RSS <= 2 {
		t.Errorf("hard error = %#v, want BudgetError{RSS>2, Limit:2}", hardErr)
	}
	if got := reg.Counter("budget.hard_breaches").Value(); got != 1 {
		t.Errorf("budget.hard_breaches = %d, want 1 (latched)", got)
	}

	// A limit no sample crosses counts nothing.
	idle := telemetry.New()
	roomy := NewCollector(idle, clock.Real{}, time.Second)
	roomy.LimitRSS(1<<62, func(err error) { t.Errorf("hook fired below the limit: %v", err) })
	roomy.Start() // Start samples once before it returns
	roomy.Stop()
	if got := idle.Counter("budget.hard_breaches").Value(); got != 0 {
		t.Errorf("budget.hard_breaches = %d below the limit, want 0", got)
	}
}

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		ok   bool
	}{
		{"0", 0, true},
		{"1024", 1024, true},
		{"64MiB", 64 << 20, true},
		{"512mib", 512 << 20, true},
		{"2GiB", 2 << 30, true},
		{"1.5g", 3 << 29, true},
		{"500MB", 500_000_000, true},
		{"128k", 128 << 10, true},
		{"10b", 10, true},
		{" 8 MiB ", 8 << 20, true},
		{"", 0, false},
		{"-5", 0, false},
		{"MiB", 0, false},
		{"12q", 0, false},
	}
	for _, tc := range cases {
		got, err := ParseBytes(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("ParseBytes(%q) err = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("ParseBytes(%q) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestReadRSSPositive(t *testing.T) {
	if got := readRSS(); got <= 0 {
		t.Fatalf("readRSS() = %d, want > 0", got)
	}
}
