package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestMain lets suite runs in tests re-execute this test binary as their
// child processes, exactly as the benchmark re-executes itself.
func TestMain(m *testing.M) {
	for _, a := range os.Args[1:] {
		if a == "-child" {
			os.Exit(run(context.Background(), os.Args[1:], os.Stdout))
		}
	}
	os.Exit(m.Run())
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestQuartilesMatchPython pins the quartile method to Python's
// statistics.quantiles(values, n=4), which outside checkers use.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{3.2, 1.1, 4.7, 2.2, 9.9, 5.5, 0.3}, 1.1, 3.2, 5.5},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q3 := quartiles(c.in)
		if m := median(c.in); !near(q1, c.q1) || !near(m, c.med) || !near(q3, c.q3) {
			t.Errorf("%v: quartiles %v %v %v, want %v %v %v", c.in, q1, m, q3, c.q1, c.med, c.q3)
		}
	}
}

// TestTailPercentile checks the rule that a reported percentile needs at
// least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for n, want := range map[int]float64{5: 0, 19: 0, 20: 50, 40: 75, 100: 90, 200: 95, 999: 95, 1000: 99, 10000: 99.9} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
	asc := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := percentile(asc, 50); p != 5 {
		t.Errorf("p50 = %v, want 5", p)
	}
	if p := percentile(asc, 99); p != 10 {
		t.Errorf("p99 = %v, want 10", p)
	}
}

// TestCompareMetric covers the bound logic: a change is worse or better
// only beyond the bound, and unresolved when either side's spread exceeds
// it unless every new run beats every old one.
func TestCompareMetric(t *testing.T) {
	tight := func(m float64) summary { return summarize("s", []float64{m * 0.99, m, m * 1.01}) }
	wide := func(m float64) summary { return summarize("s", []float64{m * 0.7, m, m * 1.3}) }
	for _, c := range []struct {
		name      string
		base, cur summary
		better    string
		want      string
	}{
		{"within bound", tight(10), tight(10.5), "lower", verdictSame},
		{"slower", tight(10), tight(12), "lower", verdictWorse},
		{"faster", tight(10), tight(8), "lower", verdictBetter},
		{"throughput drop", tight(100), tight(80), "higher", verdictWorse},
		{"throughput gain", tight(100), tight(120), "higher", verdictBetter},
		{"noisy", wide(10), wide(10.1), "lower", verdictUnresolved},
		{"noisy but every run faster", wide(10), summarize("s", []float64{5, 5.5, 6}), "lower", verdictBetter},
	} {
		if _, got := compareMetric(c.base, c.cur, c.better, 0.1); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	if d, _ := compareMetric(tight(10), tight(12), "lower", 0.1); !near(d, 0.2) {
		t.Errorf("delta = %v, want 0.2", d)
	}
}

// TestSelfTimes checks that a span's self time excludes the union of its
// children, counting overlapping children once.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 50},
		{ID: 4, Parent: 1, Start: 90, End: 120},
	}
	self := selfTimes(spans)
	if self[1] != 100-40-10 {
		t.Errorf("root self = %d, want 50", self[1])
	}
	if self[2] != 30 {
		t.Errorf("leaf self = %d, want 30", self[2])
	}
}

// benchmarkJSON is the schema of the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bj
}

// TestBenchmarkJSONMatchesCatalogue is the name-drift gate: BENCHMARK.json
// must list exactly the workloads and metrics this program reports, with
// the same units, directions and bounds.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json %q %q, benchmark %q %q", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
	}
	layers := perLayer()
	if len(bj.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(bj.PerLayer), len(layers))
	}
	for i, m := range bj.PerLayer {
		d := layers[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, benchmark %s %s %s", i, m, d.Name, d.Unit, d.Better)
		}
	}
}

// TestSmokeSuite runs the whole suite at a tiny scale, children and all:
// every workload once untraced and once traced, plus every ladder rung at
// 1% of its operation count. The correctness gate must pass and every
// metric BENCHMARK.json names must be emitted.
func TestSmokeSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	out := t.TempDir()
	var stdout bytes.Buffer
	correct, err := runBench(context.Background(), options{seed: 1, runs: 1, scale: 0.002, ladderScale: 0.01, out: out}, &stdout)
	if err != nil {
		t.Fatal(err)
	}
	if !correct {
		t.Fatalf("correctness gate failed:\n%s", stdout.String())
	}
	res, err := readResults(filepath.Join(out, "bench-results.json"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Claim != nil {
		t.Errorf("claim = %q, want null", *res.Claim)
	}
	bj := readBenchmarkJSON(t)
	emitted := map[string]bool{}
	for _, w := range bj.Workloads {
		wr := res.Workloads[w.Name]
		if wr == nil {
			t.Fatalf("no results for workload %s", w.Name)
		}
		if wr.Runs != 1 || wr.TracedRuns != 1 || wr.Digest == "" {
			t.Errorf("%s: %d untraced, %d traced runs, digest %q", w.Name, wr.Runs, wr.TracedRuns, wr.Digest)
		}
		for _, m := range bj.EndToEnd {
			if s := wr.EndToEnd[m.Name]; s.N == 0 || s.Median <= 0 {
				t.Errorf("%s: end-to-end %s not emitted (%+v)", w.Name, m.Name, s)
			}
		}
		for name := range wr.PerLayer {
			emitted[name] = true
		}
	}
	for name := range res.Ladder {
		emitted[name] = true
	}
	for _, m := range bj.PerLayer {
		if !emitted[m.Name] {
			t.Errorf("per-layer %s emitted by no workload", m.Name)
		}
	}

	f, err := os.Open(filepath.Join(out, "bench-trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	names := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var line traceLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		if line.Run != res.RunID {
			t.Errorf("span %d has run %q, want %q", line.ID, line.Run, res.RunID)
		}
		if line.Self < 0 || line.Self > line.Dur {
			t.Errorf("span %d %s: self %d outside [0, %d]", line.ID, line.Name, line.Self, line.Dur)
		}
		names[line.Name] = true
	}
	for _, want := range []string{"bench", "ladder", "study", "setup", "phase.initial_measurement", "campaign.batch",
		"checkpoint.write", "checkpoint.resume", "population.Generate", "rig.start", "core.testip_us"} {
		if !names[want] {
			t.Errorf("trace has no %s span", want)
		}
	}
}
