package faults

import (
	"hash/fnv"
	"math"
	"reflect"
	"strconv"
	"testing"
)

// keyStringHash is decisionHash as it was when the engine keyed its
// counters by a "kind|rule|host" string built for every decision. Fault
// decisions, and so every faulty report and checkpoint, are pinned to it.
func keyStringHash(seed int64, key string, seq uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(uint64(seed) >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(key))
	for i := 0; i < 8; i++ {
		b[i] = byte(seq >> (8 * i))
	}
	h.Write(b[:])
	return h.Sum64()
}

// TestDecisionHashMatchesKeyString sweeps seeds, kinds, rule indexes, hosts
// and sequence numbers: the in-place hash must equal FNV-1a over the key
// string for every one.
func TestDecisionHashMatchesKeyString(t *testing.T) {
	seeds := []int64{0, 1, 7, -1, 99, 1<<40 + 3, math.MinInt64, math.MaxInt64}
	kinds := []Kind{KindDropUDP, KindDNSServfail, KindDNSTimeout, KindDNSTruncate,
		KindConnRefuse, KindConnReset, KindSMTPTarpit, KindSMTPBlackhole}
	rules := []int{0, 1, 2, 9, 10, 11, 99, 100, 12345}
	hosts := []string{"", "198.51.100.9", "203.0.113.44", "192.0.2.53", "2001:db8::1", "a|b"}
	seqs := []uint64{0, 1, 2, 7, 255, 256, 65535, 1 << 32, math.MaxUint64}
	n := 0
	for _, seed := range seeds {
		for _, kind := range kinds {
			for _, rule := range rules {
				for _, host := range hosts {
					key := string(kind) + "|" + strconv.Itoa(rule) + "|" + host
					for _, seq := range seqs {
						got := decisionHash(seed, kind, rule, host, seq)
						if want := keyStringHash(seed, key, seq); got != want {
							t.Fatalf("decisionHash(%d, %q, %d) = %#x, want %#x", seed, key, seq, got, want)
						}
						n++
					}
				}
			}
		}
	}
	t.Logf("%d decisions compared", n)
}

// faultyTraffic drives e with queries and SMTP dials from several hosts
// and returns every verdict and dial fault, in order.
func faultyTraffic(e *Engine, events int) []string {
	var out []string
	hosts := []string{"203.0.113.1", "203.0.113.2", "203.0.113.3", "198.51.100.9"}
	for i := 0; i < events; i++ {
		host := hosts[i%len(hosts)]
		_, v := e.Datagram(addr(host, 30000, "udp"), addr("192.0.2.53", 53, "udp"), nil)
		f := e.DialTCP(addr("198.51.100.9", 0, "tcp"), addr(host, 25, "tcp"))
		out = append(out, strconv.Itoa(int(v)), strconv.FormatBool(f.Refuse)+strconv.Itoa(f.ResetAfter))
	}
	return out
}

var snapshotPlan = Plan{Seed: 31, Rules: []Rule{
	{Kind: KindDNSTimeout, Rate: 0.3},
	{Kind: KindDropUDP, Rate: 0.2, Burst: 5},
	{Kind: KindConnRefuse, Rate: 0.4},
	{Kind: KindConnReset, Rate: 0.25, ResetAfter: 64},
	{Kind: KindDropUDP, Host: "203.0.113.2", Rate: 0.5},
}}

// TestSnapshotSpellsKeyStrings: Snapshot emits the counters under their
// "kind|rule|host" keys, sorted; Restore(Snapshot()) round-trips; and an
// engine restored half-way decides the rest exactly as one that ran
// through.
func TestSnapshotSpellsKeyStrings(t *testing.T) {
	e, err := NewEngine(snapshotPlan)
	if err != nil {
		t.Fatal(err)
	}
	first := faultyTraffic(e, 40)
	snap := e.Snapshot()
	want := []SeqEntry{
		{"conn-refuse|2|198.51.100.9", 10}, {"conn-refuse|2|203.0.113.1", 10},
		{"conn-refuse|2|203.0.113.2", 10}, {"conn-refuse|2|203.0.113.3", 10},
		{"conn-reset|3|198.51.100.9", 10}, {"conn-reset|3|203.0.113.1", 10},
		{"conn-reset|3|203.0.113.2", 10}, {"conn-reset|3|203.0.113.3", 10},
	}
	// The datagram counters depend on which rule fired first; check their
	// spelling and order, and the dial counters exactly.
	var dials []SeqEntry
	for i, s := range snap {
		if i > 0 && snap[i-1].Key >= s.Key {
			t.Fatalf("snapshot not sorted at %d: %q then %q", i, snap[i-1].Key, s.Key)
		}
		if _, ok := e.parseKey(s.Key); !ok {
			t.Fatalf("snapshot key %q does not parse", s.Key)
		}
		if s.Key[:5] == "conn-" {
			dials = append(dials, s)
		}
	}
	if !reflect.DeepEqual(dials, want) {
		t.Fatalf("dial counters = %v, want %v", dials, want)
	}

	restored, err := NewEngine(snapshotPlan)
	if err != nil {
		t.Fatal(err)
	}
	restored.Restore(snap)
	if got := restored.Snapshot(); !reflect.DeepEqual(got, snap) {
		t.Fatalf("Restore(Snapshot()) = %v, want %v", got, snap)
	}
	rest := faultyTraffic(restored, 40)

	through, err := NewEngine(snapshotPlan)
	if err != nil {
		t.Fatal(err)
	}
	all := faultyTraffic(through, 80)
	if !reflect.DeepEqual(append(first, rest...), all) {
		t.Fatal("an engine restored half-way decided differently from one that ran through")
	}
}

// TestRestoreDropsKeysNoRuleReads: a key that names no rule of the plan,
// or a rule of another kind, matches no decision and is dropped.
func TestRestoreDropsKeysNoRuleReads(t *testing.T) {
	e, err := NewEngine(snapshotPlan)
	if err != nil {
		t.Fatal(err)
	}
	e.Restore([]SeqEntry{
		{"dns-timeout|0|203.0.113.1", 3},
		{"drop-udp|0|203.0.113.1", 4},    // rule 0 is dns-timeout
		{"dns-timeout|5|203.0.113.1", 4}, // no rule 5
		{"dns-timeout|00|203.0.113.1", 4},
		{"dns-timeout|-1|203.0.113.1", 4},
		{"dns-timeout|+0|203.0.113.1", 4},
		{"dns-timeout", 4},
		{"dns-timeout|0", 4},
	})
	want := []SeqEntry{{"dns-timeout|0|203.0.113.1", 3}}
	if got := e.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Snapshot after Restore = %v, want %v", got, want)
	}
}

// TestDecideAllocatesNothing: a decision on a counter that exists already
// builds no key string.
func TestDecideAllocatesNothing(t *testing.T) {
	e, err := NewEngine(snapshotPlan)
	if err != nil {
		t.Fatal(err)
	}
	r := e.plan.Rules[0]
	e.decide(0, r, "198.51.100.9")
	if n := testing.AllocsPerRun(1000, func() { e.decide(0, r, "198.51.100.9") }); n != 0 {
		t.Fatalf("decide allocates %.1f times per decision, want 0", n)
	}
}
