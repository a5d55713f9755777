package dnsclient

import (
	"context"
	"sync"

	"spfail/internal/dnsmsg"
	"spfail/internal/telemetry"
	"spfail/internal/trace"
)

// Querier is the unified query path: one transaction, validated response.
// Client implements it over the wire and CachingClient by composition, so
// the SPF engine, the MTA path, and the prober all stack layers without
// duplicated Lookup* plumbing. The two stacks in use:
//
//	NewResolver(&Client{...})                       // probe side (measure.Rig)
//	NewResolver(NewCachingClient(&Client{...}, clk)) // each simulated MTA
//
// SingleFlight and Pipeline implement Querier too, but neither stack uses
// them: every probe's names are fresh (paper §5.1), so there is never an
// identical query in flight to coalesce.
type Querier interface {
	Query(ctx context.Context, name dnsmsg.Name, typ dnsmsg.Type) (*dnsmsg.Message, error)
}

// SingleFlight deduplicates identical in-flight (name, type) queries:
// concurrent callers coalesce onto one upstream transaction and share its
// response. Layer it under CachingClient so a thundering herd of cache
// misses for the same name costs one wire exchange.
//
// Followers wait on the leader in wall time (channel select), never on the
// injected clock: a shared simulated clock has one sleeper, the study
// driver, and callers may be MTA hosts, exactly like the fabric's I/O
// waits.
type SingleFlight struct {
	// Upstream performs the actual transaction; required.
	Upstream Querier
	// Metrics, when non-nil, receives dns.flight.* counters
	// (see docs/telemetry.md).
	Metrics *telemetry.Registry

	mu       sync.Mutex
	inflight map[cacheKey]*flightCall // guarded by mu
}

type flightCall struct {
	done chan struct{}
	msg  *dnsmsg.Message
	err  error
}

// Query implements Querier. The first caller for a key becomes the leader
// and performs the upstream query; callers arriving before it completes
// wait for — and share — the leader's result. The shared *dnsmsg.Message
// must be treated as read-only, as with any cached response.
func (sf *SingleFlight) Query(ctx context.Context, name dnsmsg.Name, typ dnsmsg.Type) (*dnsmsg.Message, error) {
	key := cacheKey{name: name.CanonicalKey(), typ: typ}

	sf.mu.Lock()
	if c, ok := sf.inflight[key]; ok {
		sf.mu.Unlock()
		sf.Metrics.Counter("dns.flight.coalesced").Inc()
		if sp := trace.SpanFromContext(ctx); sp != nil {
			sp.Event("dns.flight.coalesced", trace.String("name", name.String()), trace.String("type", typ.String()))
		}
		select {
		case <-c.done:
			return c.msg, c.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if sf.inflight == nil {
		sf.inflight = make(map[cacheKey]*flightCall)
	}
	c := &flightCall{done: make(chan struct{})}
	sf.inflight[key] = c
	sf.mu.Unlock()

	sf.Metrics.Counter("dns.flight.leaders").Inc()
	if sp := trace.SpanFromContext(ctx); sp != nil {
		sp.Event("dns.flight.leader", trace.String("name", name.String()), trace.String("type", typ.String()))
	}
	c.msg, c.err = sf.Upstream.Query(ctx, name, typ)

	// Deregister before publishing so a caller arriving after completion
	// starts a fresh flight instead of reading a stale result.
	sf.mu.Lock()
	delete(sf.inflight, key)
	sf.mu.Unlock()
	close(c.done)
	return c.msg, c.err
}

// QueryBatch implements BatchQuerier. Each question registers as leader or
// follower exactly as in Query; the batch's leaders travel upstream as one
// (smaller) batch, and followers — including duplicates within the batch
// itself — share the corresponding leader's result.
func (sf *SingleFlight) QueryBatch(ctx context.Context, qs []BatchQuestion) []BatchResult {
	out := make([]BatchResult, len(qs))
	if len(qs) == 0 {
		return out
	}
	calls := make([]*flightCall, len(qs))
	keys := make([]cacheKey, len(qs))
	isLeader := make([]bool, len(qs))
	var leaders []int

	sf.mu.Lock()
	if sf.inflight == nil {
		sf.inflight = make(map[cacheKey]*flightCall)
	}
	for i, q := range qs {
		keys[i] = cacheKey{name: q.Name.CanonicalKey(), typ: q.Type}
		if c, ok := sf.inflight[keys[i]]; ok {
			calls[i] = c
			continue
		}
		c := &flightCall{done: make(chan struct{})}
		sf.inflight[keys[i]] = c
		calls[i] = c
		isLeader[i] = true
		leaders = append(leaders, i)
	}
	sf.mu.Unlock()

	if len(leaders) > 0 {
		sf.Metrics.Counter("dns.flight.leaders").Add(int64(len(leaders)))
		up := make([]BatchQuestion, len(leaders))
		for j, i := range leaders {
			up[j] = qs[i]
		}
		res := queryAll(ctx, sf.Upstream, up)
		sf.mu.Lock()
		for j, i := range leaders {
			delete(sf.inflight, keys[i])
			calls[i].msg, calls[i].err = res[j].Msg, res[j].Err
		}
		sf.mu.Unlock()
		for _, i := range leaders {
			close(calls[i].done)
		}
	}

	for i, c := range calls {
		if isLeader[i] {
			out[i] = BatchResult{Msg: c.msg, Err: c.err}
			continue
		}
		sf.Metrics.Counter("dns.flight.coalesced").Inc()
		qctx := ctx
		if qs[i].Ctx != nil {
			qctx = qs[i].Ctx
		}
		select {
		case <-c.done:
			out[i] = BatchResult{Msg: c.msg, Err: c.err}
		case <-qctx.Done():
			out[i] = BatchResult{Err: qctx.Err()}
		}
	}
	return out
}

var _ BatchQuerier = (*SingleFlight)(nil)
