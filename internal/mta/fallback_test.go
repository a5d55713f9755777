package mta

import (
	"context"
	"errors"
	"net"
	"net/netip"
	"testing"
	"time"

	"spfail/internal/faults"
	"spfail/internal/smtp"
	"spfail/internal/spfimpl"
)

// TestLossyFabricLetsTheProberGiveUp: under a drop-udp plan that drops
// the MTA's SPF lookup, the MTA waits out its DNS timeout inside MAIL,
// and a prober with a shorter I/O timeout sees its MAIL read time out
// meanwhile. That needs the session on a goroutine of its own, which a
// fabric that drops datagrams keeps; a session served on the prober's
// goroutine would hold the prober inside its MAIL write until the MTA
// answered.
func TestLossyFabricLetsTheProberGiveUp(t *testing.T) {
	w := newWorld(t)
	const hostIP = "192.0.2.61"
	engine, err := faults.NewEngine(faults.Plan{Rules: []faults.Rule{{Kind: faults.KindDropUDP, Host: hostIP}}})
	if err != nil {
		t.Fatal(err)
	}
	w.fabric.Faults = engine
	const dnsTimeout = 400 * time.Millisecond
	h := New(Config{
		Hostname:   "mx.lossy.example",
		IP:         netip.MustParseAddr(hostIP),
		Net:        w.fabric.Host(hostIP),
		DNSServer:  dnsIP + ":53",
		DNSTimeout: dnsTimeout,
		Behaviors:  []spfimpl.Behavior{spfimpl.BehaviorCompliant},
		ValidateAt: ValidateAtMailFrom,
	})
	if err := h.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer h.Stop()

	cli := &smtp.Client{Net: w.fabric.Host("198.51.100.9"), HELO: "probe.dns-lab.org", IOTimeout: 150 * time.Millisecond}
	conn, err := cli.Dial(context.Background(), hostIP+":25")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Hello(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = conn.Mail("mmj7yzdm0tbk@x7k2.t01.spf-test.dns-lab.org")
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("MAIL = %v, want its read to time out while the MTA waits for DNS", err)
	}
	if waited := time.Since(start); waited >= dnsTimeout {
		t.Fatalf("MAIL returned after %v, once the MTA's %v DNS timeout had passed", waited, dnsTimeout)
	}
}
