package dnsclient

import (
	"context"
	"sync"
	"time"

	"spfail/internal/clock"
	"spfail/internal/dnsmsg"
	"spfail/internal/telemetry"
	"spfail/internal/trace"
)

// CachingClient wraps a Querier with a TTL-respecting message cache, the
// recursive-resolver behaviour real MTAs sit behind. Positive answers are
// cached for the minimum answer TTL; negative answers (NXDOMAIN/empty)
// for the SOA minimum when present.
//
// SPFail's measurement design defeats exactly this layer: every probe
// embeds a fresh unique label, so its lookups can never be served from a
// cache and must arrive at the measurement's authoritative server
// (paper §5.1).
type CachingClient struct {
	// Upstream performs transactions on cache misses; required.
	Upstream Querier
	// Clock supplies cache timestamps (use the simulation clock so TTLs
	// interact correctly with virtual time).
	Clock clock.Clock
	// Metrics, when non-nil, receives the dns.cache.hits /
	// dns.cache.misses counters.
	Metrics *telemetry.Registry

	mu      sync.Mutex
	entries map[cacheKey]cacheEntry
}

// Cache lifetimes: every entry is capped at maxTTL, and negative answers
// without a SOA minimum live for negativeTTL.
const (
	maxTTL      = time.Hour
	negativeTTL = time.Minute
)

type cacheKey struct {
	name string
	typ  dnsmsg.Type
}

type cacheEntry struct {
	msg     *dnsmsg.Message
	expires time.Time
}

// NewCachingClient builds a caching wrapper around q.
func NewCachingClient(q Querier, clk clock.Clock) *CachingClient {
	if clk == nil {
		clk = clock.Real{}
	}
	return &CachingClient{
		Upstream: q,
		Clock:    clk,
		entries:  make(map[cacheKey]cacheEntry),
	}
}

// Query implements Querier: it serves from cache when possible, forwarding
// to Upstream otherwise.
func (cc *CachingClient) Query(ctx context.Context, name dnsmsg.Name, typ dnsmsg.Type) (*dnsmsg.Message, error) {
	key := cacheKey{name: name.CanonicalKey(), typ: typ}
	now := cc.Clock.Now()

	cc.mu.Lock()
	if e, ok := cc.entries[key]; ok && now.Before(e.expires) {
		cc.mu.Unlock()
		cc.Metrics.Counter("dns.cache.hits").Inc()
		if sp := trace.SpanFromContext(ctx); sp != nil {
			sp.Event("dns.cache.hit", trace.String("name", name.String()), trace.String("type", typ.String()))
		}
		return e.msg, nil
	}
	cc.mu.Unlock()
	cc.Metrics.Counter("dns.cache.misses").Inc()
	if sp := trace.SpanFromContext(ctx); sp != nil {
		sp.Event("dns.cache.miss", trace.String("name", name.String()), trace.String("type", typ.String()))
	}

	msg, err := cc.Upstream.Query(ctx, name, typ)
	if err != nil {
		return nil, err
	}
	ttl := ttlFor(msg)
	if ttl > 0 {
		cc.mu.Lock()
		cc.entries[key] = cacheEntry{msg: msg, expires: now.Add(ttl)}
		cc.mu.Unlock()
	}
	return msg, nil
}

// QueryBatch implements BatchQuerier: cached answers are served in place
// and only the misses travel upstream, as one batch when the upstream can
// batch. Hit/miss accounting and trace events match the single-query path.
func (cc *CachingClient) QueryBatch(ctx context.Context, qs []BatchQuestion) []BatchResult {
	out := make([]BatchResult, len(qs))
	if len(qs) == 0 {
		return out
	}
	now := cc.Clock.Now()
	keys := make([]cacheKey, len(qs))
	var misses []int

	cc.mu.Lock()
	for i, q := range qs {
		keys[i] = cacheKey{name: q.Name.CanonicalKey(), typ: q.Type}
		if e, ok := cc.entries[keys[i]]; ok && now.Before(e.expires) {
			out[i] = BatchResult{Msg: e.msg}
			continue
		}
		misses = append(misses, i)
	}
	cc.mu.Unlock()

	for i, q := range qs {
		qctx := ctx
		if q.Ctx != nil {
			qctx = q.Ctx
		}
		hit := out[i].Msg != nil
		if hit {
			cc.Metrics.Counter("dns.cache.hits").Inc()
		} else {
			cc.Metrics.Counter("dns.cache.misses").Inc()
		}
		if sp := trace.SpanFromContext(qctx); sp != nil {
			ev := "dns.cache.miss"
			if hit {
				ev = "dns.cache.hit"
			}
			sp.Event(ev, trace.String("name", q.Name.String()), trace.String("type", q.Type.String()))
		}
	}
	if len(misses) == 0 {
		return out
	}

	up := make([]BatchQuestion, len(misses))
	for j, i := range misses {
		up[j] = qs[i]
	}
	res := queryAll(ctx, cc.Upstream, up)
	cc.mu.Lock()
	for j, i := range misses {
		out[i] = res[j]
		if res[j].Err != nil {
			continue
		}
		if ttl := ttlFor(res[j].Msg); ttl > 0 {
			cc.entries[keys[i]] = cacheEntry{msg: res[j].Msg, expires: now.Add(ttl)}
		}
	}
	cc.mu.Unlock()
	return out
}

// ttlFor derives the cache lifetime from a response.
func ttlFor(msg *dnsmsg.Message) time.Duration {
	if msg.Header.RCode != dnsmsg.RCodeNoError && msg.Header.RCode != dnsmsg.RCodeNXDomain {
		return 0 // do not cache server failures
	}
	if len(msg.Answers) == 0 {
		// Negative answer: honor the SOA minimum when present.
		for _, rr := range msg.Authority {
			if soa, ok := rr.Data.(dnsmsg.SOA); ok {
				ttl := time.Duration(soa.Minimum) * time.Second
				if ttl > maxTTL {
					ttl = maxTTL
				}
				if ttl > 0 {
					return ttl
				}
			}
		}
		return negativeTTL
	}
	min := uint32(1<<31 - 1)
	for _, rr := range msg.Answers {
		if rr.TTL < min {
			min = rr.TTL
		}
	}
	ttl := time.Duration(min) * time.Second
	if ttl > maxTTL {
		ttl = maxTTL
	}
	return ttl
}

// Flush empties the cache.
func (cc *CachingClient) Flush() {
	cc.mu.Lock()
	cc.entries = make(map[cacheKey]cacheEntry)
	cc.mu.Unlock()
}

var _ BatchQuerier = (*CachingClient)(nil)
