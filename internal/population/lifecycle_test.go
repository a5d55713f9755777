package population

import (
	"context"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"spfail/internal/clock"
	"spfail/internal/mta"
	"spfail/internal/netsim"
	"spfail/internal/spfimpl"
)

// releaseDeadline bounds how long stopped hosts may take to give back their
// goroutines and memory.
const releaseDeadline = 10 * time.Second

// startStopWaves starts and stops 300 hosts in waves of 100 under ctx
// through StartHost and StopHost, the pair a campaign's shards call around
// each probe, and hands each started host to started before its wave
// stops. It returns the number of hosts.
func startStopWaves(t *testing.T, ctx context.Context, started func(*mta.Host)) int {
	t.Helper()
	const waves, perWave = 3, 100
	w := &World{Hosts: make(map[netip.Addr]*HostSpec)}
	var addrs []netip.Addr
	for i := 0; i < waves*perWave; i++ {
		a := netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)})
		w.Hosts[a] = &HostSpec{
			Addr:       a,
			Listens:    true,
			ValidateAt: mta.ValidateAtMailFrom,
			Behaviors:  []spfimpl.Behavior{spfimpl.BehaviorVulnLibSPF2},
		}
		addrs = append(addrs, a)
	}
	m := &HostManager{World: w, Fabric: netsim.NewFabric(), Clock: clock.Real{}, DNSServer: "192.0.2.53:53"}
	for i := 0; i < waves; i++ {
		wave := addrs[i*perWave : (i+1)*perWave]
		for _, a := range wave {
			if up, err := m.StartHost(ctx, a, time.Unix(0, 0)); err != nil || !up {
				t.Fatalf("StartHost(%s) = %v, %v; want true, nil", a, up, err)
			}
		}
		m.mu.Lock()
		for _, h := range m.running {
			started(h)
		}
		m.mu.Unlock()
		for _, a := range wave {
			m.StopHost(a)
		}
	}
	if n := m.RunningCount(); n != 0 {
		t.Fatalf("RunningCount = %d after stopping every wave", n)
	}
	return len(addrs)
}

// TestStoppedHostsLeaveNoGoroutine: a stopped host must hold no goroutine
// although the context that started it is still live.
func TestStoppedHostsLeaveNoGoroutine(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel() // runs after every check: the context outlives the hosts
	baseline := runtime.NumGoroutine()
	n := startStopWaves(t, ctx, func(*mta.Host) {})
	deadline := time.Now().Add(releaseDeadline)
	for g := runtime.NumGoroutine(); g > baseline; g = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines %v after stopping %d hosts, %d before starting them", g, releaseDeadline, n, baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
