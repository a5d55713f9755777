package dnsclient

import (
	"context"
	"sync"

	"spfail/internal/dnsmsg"
	"spfail/internal/telemetry"
)

// BatchQuestion is one question of a pipelined batch.
type BatchQuestion struct {
	Name dnsmsg.Name
	Type dnsmsg.Type
	// Ctx, when non-nil, carries this question's cancellation and trace
	// span; a batch built from several callers keeps each caller's
	// attribution. Nil falls back to the batch-level context.
	Ctx context.Context
}

// BatchResult is the outcome for the question at the same index.
type BatchResult struct {
	Msg *dnsmsg.Message
	Err error
}

// BatchQuerier is a Querier that can resolve several questions in one
// call: a cache answers the hits and forwards the misses as one batch, and
// the wire Client exchanges them back to back on its idle socket.
//
// Within a batch the wire exchanges stay strictly serialized in question
// order. That is deliberate, not a missed optimization: the fault engine
// counts each host's datagrams in sequence and the authoritative server
// attributes trace events per packet, so overlapping in-flight queries from
// one host would make faulty and traced campaign runs depend on scheduler
// interleaving.
type BatchQuerier interface {
	Querier
	QueryBatch(ctx context.Context, qs []BatchQuestion) []BatchResult
}

// queryAll resolves qs through q, using one QueryBatch call when the layer
// supports batching and falling back to sequential Query calls otherwise.
func queryAll(ctx context.Context, q Querier, qs []BatchQuestion) []BatchResult {
	if bq, ok := q.(BatchQuerier); ok {
		return bq.QueryBatch(ctx, qs)
	}
	out := make([]BatchResult, len(qs))
	for i, bq := range qs {
		qctx := ctx
		if bq.Ctx != nil {
			qctx = bq.Ctx
		}
		out[i].Msg, out[i].Err = q.Query(qctx, bq.Name, bq.Type)
	}
	return out
}

// Pipeline coalesces queries that arrive while an exchange is in flight
// into batches for a BatchQuerier upstream — natural batching, with no
// artificial delay: a lone query dispatches immediately as a batch of one,
// and whatever queued up behind an in-flight dispatch forms the next batch.
// It slots directly above the wire Client. No resolver stack in use
// includes it: the only multi-question batches are explicit dual-family
// lookups, which Client.QueryBatch already sends back to back.
type Pipeline struct {
	// Upstream executes the batches; required.
	Upstream BatchQuerier
	// MaxBatch caps questions per dispatch. 0 means 16.
	MaxBatch int
	// Metrics, when non-nil, receives dns.pipeline.* counters
	// (see docs/telemetry.md).
	Metrics *telemetry.Registry

	mu    sync.Mutex
	queue []*pipelineCall // guarded by mu
	busy  bool            // guarded by mu
}

type pipelineCall struct {
	q    BatchQuestion
	done chan struct{}
	msg  *dnsmsg.Message
	err  error
}

func (p *Pipeline) maxBatch() int {
	if p.MaxBatch > 0 {
		return p.MaxBatch
	}
	return 16
}

// Query implements Querier. The caller's question joins the queue; if no
// dispatch is running this caller volunteers to drive one, otherwise the
// in-flight dispatcher (or its successor) picks the question up.
func (p *Pipeline) Query(ctx context.Context, name dnsmsg.Name, typ dnsmsg.Type) (*dnsmsg.Message, error) {
	call := &pipelineCall{
		q:    BatchQuestion{Name: name, Type: typ, Ctx: ctx},
		done: make(chan struct{}),
	}
	p.mu.Lock()
	p.queue = append(p.queue, call)
	start := !p.busy
	if start {
		p.busy = true
	}
	p.mu.Unlock()
	if start {
		p.drain()
	}
	select {
	case <-call.done:
		return call.msg, call.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// QueryBatch implements BatchQuerier: an explicit batch already has its
// questions together, so it goes straight upstream without queueing.
func (p *Pipeline) QueryBatch(ctx context.Context, qs []BatchQuestion) []BatchResult {
	p.countBatch(len(qs))
	return p.Upstream.QueryBatch(ctx, qs)
}

// drain dispatches one queued batch, then either retires (queue empty) or
// hands the remainder to a fresh goroutine so the caller that volunteered
// as dispatcher returns as soon as its own result is published.
func (p *Pipeline) drain() {
	p.mu.Lock()
	n := len(p.queue)
	if n == 0 {
		p.busy = false
		p.mu.Unlock()
		return
	}
	if max := p.maxBatch(); n > max {
		n = max
	}
	batch := make([]*pipelineCall, n)
	copy(batch, p.queue)
	p.queue = p.queue[n:]
	p.mu.Unlock()

	p.countBatch(len(batch))
	qs := make([]BatchQuestion, len(batch))
	for i, c := range batch {
		qs[i] = c.q
	}
	res := p.Upstream.QueryBatch(context.Background(), qs)
	for i, c := range batch {
		c.msg, c.err = res[i].Msg, res[i].Err
		close(c.done)
	}

	p.mu.Lock()
	if len(p.queue) == 0 {
		p.busy = false
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	go p.drain()
}

func (p *Pipeline) countBatch(n int) {
	p.Metrics.Counter("dns.pipeline.batches").Inc()
	p.Metrics.Counter("dns.pipeline.questions").Add(int64(n))
	if n > 1 {
		p.Metrics.Counter("dns.pipeline.coalesced").Add(int64(n - 1))
	}
}

var _ BatchQuerier = (*Pipeline)(nil)
