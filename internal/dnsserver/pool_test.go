package dnsserver

import (
	"bytes"
	"net"
	"testing"

	"spfail/internal/dnsmsg"
	"spfail/internal/netsim"
)

// capturePC is a net.PacketConn that keeps a copy of the last datagram
// written to it.
type capturePC struct {
	net.PacketConn
	last []byte
}

func (c *capturePC) WriteTo(b []byte, _ net.Addr) (int, error) {
	c.last = append(c.last[:0], b...)
	return len(b), nil
}

// TestReusedDecoderAndBufferAnswerAsFreshOnes answers with a Decoder and a
// response buffer in the state an earlier answer leaves them when they go
// back to their pools, another query decoded and a full buffer of garbage:
// the response must be byte for byte the one a fresh pair sends.
func TestReusedDecoderAndBufferAnswerAsFreshOnes(t *testing.T) {
	s := &Server{Handler: newTestZone()}
	from := netsim.Addr{Net: "udp", Host: "198.51.100.1", Port: 40001}
	pkt, err := dnsmsg.NewQuery(5, name("example.com"), dnsmsg.TypeMX).Pack()
	if err != nil {
		t.Fatal(err)
	}
	var fresh capturePC
	s.answer(dnsmsg.NewDecoder(), &fresh, nil, pkt, from)
	if len(fresh.last) == 0 {
		t.Fatal("a fresh decoder and buffer sent nothing")
	}

	d := dnsmsg.NewDecoder()
	other, err := dnsmsg.NewQuery(9, name("a.b.c.d.e.example.org"), dnsmsg.TypeTXT).Pack()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Decode(other); err != nil {
		t.Fatal(err)
	}
	garbage := bytes.Repeat([]byte{0xEE}, MaxUDPPayload)
	var reused capturePC
	s.answer(d, &reused, garbage, pkt, from)
	if !bytes.Equal(reused.last, fresh.last) {
		t.Fatalf("reused decoder and buffer sent %x, want %x", reused.last, fresh.last)
	}
}
