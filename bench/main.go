// Command bench is the repository benchmark. It runs four workloads
// through the public entry points (study.Run, measure.SpoofSurvey,
// population.Generate), each iteration in a fresh child process, checks
// every output for correctness, and reports end-to-end and per-layer
// metrics with their spread. See README.md in this directory.
//
//	bash bench/run.sh                               # every workload, 5 untraced + 1 traced runs each, plus the ladder
//	bash bench/run.sh -workload study -seconds 20   # one workload for a fixed time; last line is a JSON summary
//	bash bench/run.sh -compare base.json new.json   # compare two bench-results.json files
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

//go:embed digests.json
var digestsJSON []byte

type options struct {
	workload    string
	seed        int64
	seconds     int
	trace       int
	runs        int
	compare     bool
	out         string
	scale       float64
	ladderScale float64
	child       string
	tmp         string
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run only this workload for -seconds and print a one-line JSON summary last")
	fs.Int64Var(&o.seed, "seed", 1, "input seed: every world is generated from it")
	fs.IntVar(&o.seconds, "seconds", 20, "with -workload: how long to measure")
	fs.IntVar(&o.trace, "trace", 0, "with -workload: 1 runs traced iterations and the ladder and reports per-layer metrics")
	fs.IntVar(&o.runs, "runs", 5, "without -workload: untraced runs per workload (plus one traced run)")
	fs.BoolVar(&o.compare, "compare", false, "compare two results files: -compare base.json new.json")
	fs.StringVar(&o.out, "out", ".bench_build/out", "directory for bench-results.json, bench-trace.jsonl and scratch files")
	fs.Float64Var(&o.scale, "scale", 0, "override every workload's population scale (0 keeps each workload's own)")
	fs.Float64Var(&o.ladderScale, "ladder-scale", 1, "multiply every ladder rung's operation count")
	fs.StringVar(&o.child, "child", "", "internal: run one iteration of this workload (or the ladder) and print it as JSON")
	fs.StringVar(&o.tmp, "tmp", "", "internal: scratch directory of a child")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	var err error
	switch {
	case o.child != "":
		err = runChild(ctx, o, stdout)
	case o.compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two results files")
			return 2
		}
		var worse bool
		if worse, err = compareFiles(stdout, fs.Arg(0), fs.Arg(1)); err == nil && worse {
			return 1
		}
	default:
		var correct bool
		if correct, err = runBench(ctx, o, stdout); err == nil && !correct {
			return 1
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// ladderOut is what the ladder child reports.
type ladderOut struct {
	Metrics map[string]float64 `json:"metrics"`
	Spans   []span             `json:"spans"`
}

func runChild(ctx context.Context, o options, stdout io.Writer) error {
	var v any
	if o.child == "ladder" {
		rec := &recorder{on: true}
		m, err := runLadder(ctx, o.ladderScale, o.tmp, rec)
		if err != nil {
			return err
		}
		v = ladderOut{Metrics: m, Spans: rec.spans}
	} else {
		w, ok := workloadByName(o.child)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.child)
		}
		s, err := runIteration(ctx, w, o.seed, o.scale, o.trace == 1, o.tmp)
		if err != nil {
			return err
		}
		v = s
	}
	return json.NewEncoder(stdout).Encode(v)
}

// bench drives child processes, one at a time, and collects their
// samples and spans.
type bench struct {
	o     options
	tmp   string
	rec   *recorder
	root  int
	runID string
	// ref is the latest reference-kernel time: it closes one iteration's
	// bracket and opens the next one's.
	ref float64
}

// runBench runs the suite (every workload) or, with -workload, one
// workload for -seconds, prints every metric and writes the results and
// trace files. It reports whether every correctness gate passed.
func runBench(ctx context.Context, o options, stdout io.Writer) (bool, error) {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return false, err
	}
	tmp, err := os.MkdirTemp(o.out, "tmp-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(tmp)
	start := time.Now()
	b := &bench{o: o, tmp: tmp, rec: &recorder{on: true}, runID: strconv.FormatInt(start.UnixNano(), 36) + "-" + strconv.Itoa(os.Getpid())}
	b.root = b.rec.start("bench", 0, start)

	res := &results{Seed: o.seed, GoMaxProcs: runtime.GOMAXPROCS(0), RunID: b.runID, Workloads: map[string]*workloadResult{}}
	selected := workloads
	if o.workload != "" {
		w, ok := workloadByName(o.workload)
		if !ok {
			return false, fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []workload{w}
	}
	budget := time.Duration(o.seconds) * time.Second
	var ladder map[string]float64
	if o.workload == "" || o.trace == 1 {
		if ladder, err = b.ladder(ctx); err != nil {
			return false, err
		}
		res.Ladder = ladder
		budget -= time.Since(start)
	}
	samples := map[string][]*sample{}
	if o.workload == "" {
		// The suite goes round-robin over the workloads, so a spell of
		// machine slowdown spreads over all of them instead of skewing one.
		for i := 0; i <= o.runs; i++ {
			for _, w := range selected {
				s, err := b.runOne(ctx, w, 0, i == o.runs)
				if err != nil {
					return false, err
				}
				samples[w.Name] = append(samples[w.Name], s)
			}
		}
	} else {
		w := selected[0]
		plan, limit, group := func(i int) (int, bool) { return max(0, i-1), false }, 3, 1
		if o.trace == 1 {
			plan, limit, group = func(i int) (int, bool) { return i / 2, i%2 == 0 }, 2, 2
		}
		if samples[w.Name], err = b.iterate(ctx, w, budget, limit, group, plan); err != nil {
			return false, err
		}
	}
	for _, w := range selected {
		res.Workloads[w.Name] = aggregate(w, b.scale(w), o.seed, samples[w.Name])
	}
	res.Correct = true
	for _, wr := range res.Workloads {
		res.Correct = res.Correct && wr.Correct
	}
	b.rec.finish(b.root, time.Now(), map[string]any{"seed": o.seed, "correct": res.Correct})

	printResults(stdout, res)
	if err := writeJSON(filepath.Join(o.out, "bench-results.json"), res); err != nil {
		return false, err
	}
	if o.workload == "" || o.trace == 1 {
		if err := writeTrace(filepath.Join(o.out, "bench-trace.jsonl"), b.runID, b.rec.spans); err != nil {
			return false, err
		}
	}
	if o.workload != "" {
		if err := printSummaryLine(stdout, res.Workloads[o.workload], ladder, o.trace == 1); err != nil {
			return false, err
		}
	}
	return res.Correct, nil
}

func (b *bench) scale(w workload) float64 {
	if b.o.scale > 0 {
		return b.o.scale
	}
	return w.Scale
}

// Every iteration measures world j of the run: world 0 is generated from
// the run's seed itself, world j > 0 from seed + j*worldStride. The suite
// measures world 0 every time, so its runs repeat one input. A timed
// single-workload run spreads over distinct worlds instead, which keeps
// its median from hanging on one world's size while each world still
// repeats once for the digest check: untraced it measures worlds 0, 0, 1,
// 2, …; traced, each world traced and then untraced.
const worldStride = 1000003

func worldSeed(seed int64, j int) int64 { return seed + int64(j)*worldStride }

// iterate runs iterations of w for the budget, one child process at a
// time; plan names each iteration's world and whether it is traced. After
// at least limit iterations it stops at the first multiple of group
// iterations where the next group (estimated from the median iteration so
// far) would overrun the budget; traced runs use groups of two so every
// world is measured both traced and untraced.
func (b *bench) iterate(ctx context.Context, w workload, budget time.Duration, limit, group int, plan func(i int) (world int, traced bool)) ([]*sample, error) {
	start := time.Now()
	var samples []*sample
	var took []float64
	for i := 0; ; i++ {
		next := time.Duration(median(took) * float64(group) * float64(time.Second))
		if i >= limit && i%group == 0 && time.Since(start)+next > budget {
			return samples, nil
		}
		t0 := time.Now()
		world, traced := plan(i)
		s, err := b.runOne(ctx, w, world, traced)
		if err != nil {
			return nil, err
		}
		took = append(took, time.Since(t0).Seconds())
		samples = append(samples, s)
	}
}

// runOne measures one iteration of w on the given world in a child
// process and hangs its spans under the run's root.
func (b *bench) runOne(ctx context.Context, w workload, world int, traced bool) (*sample, error) {
	args := []string{"-child", w.Name, "-seed", strconv.FormatInt(worldSeed(b.o.seed, world), 10),
		"-scale", strconv.FormatFloat(b.scale(w), 'g', -1, 64), "-tmp", b.tmp, "-trace", "0"}
	if traced {
		args[len(args)-1] = "1"
	}
	if b.ref == 0 {
		b.ref = reference()
	}
	before := b.ref
	var s sample
	if err := spawn(ctx, &s, args...); err != nil {
		return nil, fmt.Errorf("%s world %d: %w", w.Name, world, err)
	}
	b.ref = reference()
	s.World = world
	s.atMachineSpeed((before + b.ref) / 2)
	b.rec.graft(s.Spans, b.root)
	s.Spans = nil
	return &s, nil
}

// ladder runs every rung once in its own child process.
func (b *bench) ladder(ctx context.Context) (map[string]float64, error) {
	var out ladderOut
	if err := spawn(ctx, &out, "-child", "ladder", "-ladder-scale", strconv.FormatFloat(b.o.ladderScale, 'g', -1, 64), "-tmp", b.tmp, "-trace", "1"); err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	b.rec.graft(out.Spans, b.root)
	return out.Metrics, nil
}

// recordedDigests are the seed-1 report digests of each workload at its
// own scale; a seed-1 run at that scale must reproduce them.
func recordedDigests() (map[string]string, error) {
	var m map[string]string
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return m, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
