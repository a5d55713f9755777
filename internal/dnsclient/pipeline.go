package dnsclient

import (
	"context"
	"sync"

	"spfail/internal/dnsmsg"
	"spfail/internal/telemetry"
)

// Pipeline coalesces queries that arrive while a dispatch is in flight
// into the next dispatch — natural batching, with no artificial delay: a
// lone query dispatches immediately as a batch of one, and whatever queued
// up behind an in-flight dispatch forms the next batch. A dispatch asks
// Upstream its questions one after the other, in queue order. No resolver
// stack in use includes it; the benchmark ladder under bench/ measures it
// as a rung.
type Pipeline struct {
	// Upstream answers the dispatched questions; required.
	Upstream Querier
	// MaxBatch caps questions per dispatch. 0 means 16.
	MaxBatch int
	// Metrics, when non-nil, receives dns.pipeline.* counters
	// (see docs/telemetry.md).
	Metrics *telemetry.Registry

	mu    sync.Mutex
	queue []*pipelineCall // guarded by mu
	busy  bool            // guarded by mu
}

// pipelineCall is one queued question. ctx is its caller's, so the
// upstream exchange keeps the caller's cancellation and trace span.
type pipelineCall struct {
	ctx  context.Context
	name dnsmsg.Name
	typ  dnsmsg.Type
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
	call := &pipelineCall{ctx: ctx, name: name, typ: typ, done: make(chan struct{})}
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
	for _, c := range batch {
		c.msg, c.err = p.Upstream.Query(c.ctx, c.name, c.typ)
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

var _ Querier = (*Pipeline)(nil)
