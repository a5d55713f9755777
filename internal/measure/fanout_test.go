package measure_test

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"spfail/internal/clock"
	"spfail/internal/core"
	"spfail/internal/dnsmsg"
	"spfail/internal/measure"
	"spfail/internal/netsim"
	"spfail/internal/population"
	"spfail/internal/report"
	"spfail/internal/trace"
)

// queryRecorder is a pass-through netsim.FaultInjector that keeps the
// question name of every DNS query the vantage sends. Installing any
// injector puts the rig's DNS walks on one worker.
type queryRecorder struct {
	vantage string
	mu      sync.Mutex
	names   []string
}

func (q *queryRecorder) DialTCP(src, dst netsim.Addr) netsim.DialFault { return netsim.DialFault{} }

func (q *queryRecorder) DropsDatagrams() bool { return false }

// take returns the names recorded so far and starts a new list.
func (q *queryRecorder) take() []string {
	q.mu.Lock()
	defer q.mu.Unlock()
	names := q.names
	q.names = nil
	return names
}

func (q *queryRecorder) Datagram(from, to netsim.Addr, payload []byte) ([]byte, netsim.DatagramVerdict) {
	if from.Host != q.vantage || to.Port != 53 {
		return nil, netsim.VerdictPass
	}
	if m, err := dnsmsg.Unpack(payload); err == nil && len(m.Questions) == 1 {
		q.mu.Lock()
		q.names = append(q.names, strings.ToLower(strings.TrimSuffix(m.Questions[0].Name.String(), ".")))
		q.mu.Unlock()
	}
	return nil, netsim.VerdictPass
}

// walkResult is everything the rig's two DNS walks hand back.
type walkResult struct {
	verdicts []core.SpoofVerdict
	csv      []byte
	targets  []measure.Target
	trace    []byte
	// walks holds the vantage's query names, survey then resolution,
	// when a recorder was installed.
	walks [2][]string
}

// tracedWalks runs the spoof survey and target resolution over a fresh
// traced nine-pack world on a simulated clock. With record, a
// queryRecorder sits on the fabric, which puts both walks on one worker.
func tracedWalks(t *testing.T, record bool) (walkResult, *population.World) {
	t.Helper()
	s := population.DefaultSpec()
	s.Scale = 0.001
	s.Seed = 29
	for _, name := range population.PackNames() {
		s.Scenarios = append(s.Scenarios, population.ScenarioPackRef{Name: name, Weight: 0.1})
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	w := population.MustGenerate(s)
	var traceBuf bytes.Buffer
	rig, err := measure.NewRigFromOptions(context.Background(), measure.RigOptions{
		World: w,
		Clock: clock.NewSim(time.Date(2021, 10, 11, 0, 0, 0, 0, time.UTC)),
		Trace: trace.New(&traceBuf, trace.Options{Seed: s.Seed}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rig.Close()
	var rec *queryRecorder
	if record {
		rec = &queryRecorder{vantage: rig.ProbeIP}
		rig.Fabric.Faults = rec
	}
	var r walkResult
	r.verdicts = (&measure.SpoofSurvey{Rig: rig}).Run(context.Background())
	if rec != nil {
		r.walks[0] = rec.take()
	}
	var csv bytes.Buffer
	if err := report.ScenarioCSV(&csv, measure.ScenarioStats(r.verdicts)); err != nil {
		t.Fatal(err)
	}
	r.csv = csv.Bytes()
	names := make([]string, len(w.Domains))
	for i, d := range w.Domains {
		names[i] = d.Name
	}
	r.targets = rig.ResolveTargets(context.Background(), names)
	r.trace = traceBuf.Bytes()
	if rec != nil {
		r.walks[1] = rec.take()
	}
	return r, w
}

// TestFanOutMatchesSequentialWalk runs the rig's DNS walks fanned out and
// again with a fault injector installed, which forces one worker. Both
// must give the same verdicts, scenario CSV, targets and trace bytes,
// and with the injector the vantage's queries must arrive in domain
// order: every query of domain i before any query of domain i+1. With
// GOMAXPROCS 1 both runs use one worker.
func TestFanOutMatchesSequentialWalk(t *testing.T) {
	fanned, w := tracedWalks(t, false)
	serial, _ := tracedWalks(t, true)

	if len(fanned.verdicts) != len(w.Domains) || len(fanned.targets) != len(w.Domains) {
		t.Fatalf("%d verdicts and %d targets for %d domains", len(fanned.verdicts), len(fanned.targets), len(w.Domains))
	}
	// The traced survey flushes in chunks of 256 domains; cross a boundary.
	if len(w.Domains) <= 256 {
		t.Fatalf("%d domains fit in one trace chunk", len(w.Domains))
	}
	if !reflect.DeepEqual(fanned.verdicts, serial.verdicts) {
		t.Error("fanned-out and one-worker surveys gave different verdicts")
	}
	if !bytes.Equal(fanned.csv, serial.csv) {
		t.Errorf("scenario CSV differs:\n%s\nvs\n%s", fanned.csv, serial.csv)
	}
	if !reflect.DeepEqual(fanned.targets, serial.targets) {
		t.Error("fanned-out and one-worker resolutions gave different targets")
	}
	if !bytes.Contains(fanned.trace, []byte(`"spoof.verdict"`)) {
		t.Fatal("traced survey wrote no spoof.verdict spans")
	}
	if !bytes.Equal(fanned.trace, serial.trace) {
		t.Error("fanned-out and one-worker surveys wrote different trace JSONL")
	}

	// Attribute each query to the world domain it falls under: every
	// name the walks ask for is a domain or one of its subdomains.
	index := make(map[string]int, len(w.Domains))
	for i, d := range w.Domains {
		index[strings.ToLower(d.Name)] = i
	}
	owner := func(name string) (int, bool) {
		for {
			if i, ok := index[name]; ok {
				return i, true
			}
			dot := strings.IndexByte(name, '.')
			if dot < 0 {
				return 0, false
			}
			name = name[dot+1:]
		}
	}
	for k, walk := range serial.walks {
		last := -1
		for q, name := range walk {
			i, ok := owner(name)
			if !ok {
				t.Fatalf("walk %d: query %q names no world domain", k, name)
			}
			if i < last {
				t.Fatalf("walk %d: query %d (%q, domain %d) arrived after a query of domain %d", k, q, name, i, last)
			}
			last = i
		}
		if last != len(w.Domains)-1 {
			t.Fatalf("walk %d: %d queries ending at domain %d of %d", k, len(walk), last, len(w.Domains))
		}
	}
}
