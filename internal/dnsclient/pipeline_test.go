package dnsclient

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"spfail/internal/dnsmsg"
	"spfail/internal/telemetry"
)

// countingQuerier answers every question with a TXT record echoing its own
// name and records the names in the order it is asked. When gate is
// non-nil, the first question closes entered and waits until gate closes.
type countingQuerier struct {
	gate, entered chan struct{}

	mu    sync.Mutex
	asked []string
}

func (c *countingQuerier) Query(ctx context.Context, name dnsmsg.Name, typ dnsmsg.Type) (*dnsmsg.Message, error) {
	c.mu.Lock()
	c.asked = append(c.asked, name.String())
	first := len(c.asked) == 1
	c.mu.Unlock()
	if first && c.gate != nil {
		close(c.entered)
		<-c.gate
	}
	r := dnsmsg.NewQuery(1, name, typ).Reply()
	r.Answers = append(r.Answers, dnsmsg.Record{
		Name: name, Class: dnsmsg.ClassIN, TTL: 60,
		Data: dnsmsg.TXT{Strings: []string{name.String()}},
	})
	return r, nil
}

func (c *countingQuerier) questions() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.asked)
}

// Concurrent callers hammering one Pipeline: every caller must get exactly
// its own answer back (no cross-wiring between coalesced questions), every
// question must reach the upstream exactly once, and the dispatches must
// carry them at most MaxBatch at a time. Run with -race to verify the
// queue handoff.
func TestPipelineConcurrentQueries(t *testing.T) {
	up := &countingQuerier{}
	reg := telemetry.New()
	p := &Pipeline{Upstream: up, MaxBatch: 4, Metrics: reg}

	const workers, perWorker = 16, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				n := name(fmt.Sprintf("w%d-q%d.example.com", w, i))
				msg, err := p.Query(context.Background(), n, dnsmsg.TypeTXT)
				if err != nil {
					errs <- fmt.Errorf("%s: %w", n, err)
					continue
				}
				if len(msg.Answers) != 1 {
					errs <- fmt.Errorf("%s: %d answers", n, len(msg.Answers))
					continue
				}
				txt, ok := msg.Answers[0].Data.(dnsmsg.TXT)
				if !ok || len(txt.Strings) != 1 || txt.Strings[0] != n.String() {
					errs <- fmt.Errorf("%s: got answer %v — cross-wired batch result", n, msg.Answers[0].Data)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	const total = workers * perWorker
	asked := up.questions()
	seen := make(map[string]bool, len(asked))
	for _, q := range asked {
		if seen[q] {
			t.Fatalf("upstream was asked %s twice", q)
		}
		seen[q] = true
	}
	if len(asked) != total {
		t.Fatalf("upstream saw %d questions, want %d", len(asked), total)
	}
	batches := reg.Counter("dns.pipeline.batches").Value()
	if batches < (total+3)/4 || batches > total {
		t.Fatalf("dns.pipeline.batches = %d, want between %d and %d", batches, (total+3)/4, total)
	}
	if got := reg.Counter("dns.pipeline.questions").Value(); got != total {
		t.Fatalf("dns.pipeline.questions = %d, want %d", got, total)
	}
	if got := reg.Counter("dns.pipeline.coalesced").Value(); got != total-batches {
		t.Fatalf("dns.pipeline.coalesced = %d, want %d", got, total-batches)
	}
}

// A lone query must dispatch immediately as a batch of one — natural
// batching adds no artificial latency.
func TestPipelineLoneQueryDispatchesAlone(t *testing.T) {
	up := &countingQuerier{}
	reg := telemetry.New()
	p := &Pipeline{Upstream: up, Metrics: reg}
	if _, err := p.Query(context.Background(), name("solo.example.com"), dnsmsg.TypeA); err != nil {
		t.Fatal(err)
	}
	batches := reg.Counter("dns.pipeline.batches").Value()
	if asked := up.questions(); batches != 1 || len(asked) != 1 {
		t.Fatalf("batches=%d questions=%d, want 1/1", batches, len(asked))
	}
}

// Questions that queue behind an in-flight dispatch go upstream one after
// the other in queue order, at most MaxBatch per dispatch.
func TestPipelineDispatchesInQueueOrder(t *testing.T) {
	up := &countingQuerier{gate: make(chan struct{}), entered: make(chan struct{})}
	reg := telemetry.New()
	p := &Pipeline{Upstream: up, MaxBatch: 4, Metrics: reg}

	var wg sync.WaitGroup
	ask := func(n string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Query(context.Background(), name(n), dnsmsg.TypeTXT); err != nil {
				t.Error(err)
			}
		}()
	}
	ask("first.example.com")
	<-up.entered
	// The first dispatch holds the upstream; these nine queue behind it.
	const queued = 9
	for i := 0; i < queued; i++ {
		ask(fmt.Sprintf("q%d.example.com", i))
	}
	want := []string{"first.example.com."}
	for {
		p.mu.Lock()
		if len(p.queue) == queued {
			for _, c := range p.queue {
				want = append(want, c.name.String())
			}
		}
		p.mu.Unlock()
		if len(want) > 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(up.gate)
	wg.Wait()

	if got := up.questions(); !slices.Equal(got, want) {
		t.Fatalf("upstream asked\n%v\nwant queue order\n%v", got, want)
	}
	// 1 + 4 + 4 + 1 questions.
	if got := reg.Counter("dns.pipeline.batches").Value(); got != 4 {
		t.Fatalf("dns.pipeline.batches = %d, want 4", got)
	}
	if got := reg.Counter("dns.pipeline.coalesced").Value(); got != 6 {
		t.Fatalf("dns.pipeline.coalesced = %d, want 6", got)
	}
}
