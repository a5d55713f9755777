// Package study runs the complete SPFail reproduction end to end: the
// initial full-population measurement, the two-window longitudinal
// campaign, the private-notification mailing with its tracking pixel, the
// package-manager patch timeline, the final re-resolved snapshot, and the
// aggregation that yields every table and figure of the paper.
package study

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"spfail/internal/clock"
	"spfail/internal/netsim"
)

// Tracker is the minimal HTTP server that serves the notification emails'
// tracking pixel (paper §7.7). Each pixel URL embeds a unique identifier;
// a successful fetch is the study's evidence that the notification was
// opened (see Notifier).
type Tracker struct {
	Net  netsim.Network
	Addr string // listen address, e.g. ":80"
	Clk  clock.Clock

	mu sync.Mutex
	l  net.Listener
	wg sync.WaitGroup
}

func (t *Tracker) clock() clock.Clock {
	if t.Clk != nil {
		return t.Clk
	}
	return clock.Real{}
}

// pixelTimeout bounds one pixel request, on both ends.
const pixelTimeout = 10 * time.Second

// opened1x1 is a 1×1 GIF, the classic tracking pixel.
var opened1x1 = []byte("GIF89a\x01\x00\x01\x00\x80\x00\x00\x00\x00\x00\xff\xff\xff!\xf9\x04\x01\x00\x00\x00\x00,\x00\x00\x00\x00\x01\x00\x01\x00\x00\x02\x02D\x01\x00;")

// Start binds the tracker's listener.
func (t *Tracker) Start() error {
	l, err := t.Net.Listen("tcp", t.Addr)
	if err != nil {
		return err
	}
	t.mu.Lock()
	t.l = l
	t.mu.Unlock()
	t.wg.Add(1)
	go t.serve(l)
	return nil
}

// Stop closes the listener and waits for in-flight requests.
func (t *Tracker) Stop() {
	t.mu.Lock()
	l := t.l
	t.mu.Unlock()
	if l != nil {
		_ = l.Close()
	}
	t.wg.Wait()
}

func (t *Tracker) serve(l net.Listener) {
	defer t.wg.Done()
	for {
		c, err := l.Accept()
		if err != nil {
			return
		}
		t.wg.Add(1)
		go func(c net.Conn) {
			defer t.wg.Done()
			defer c.Close()
			t.handle(c)
		}(c)
	}
}

// handle processes one HTTP request: GET /px/<id>.gif.
func (t *Tracker) handle(c net.Conn) {
	if err := c.SetDeadline(t.clock().Now().Add(pixelTimeout)); err != nil {
		return
	}
	br := bufio.NewReader(c)
	line, err := br.ReadString('\n')
	if err != nil {
		return
	}
	// Drain headers up to the blank line.
	for {
		h, err := br.ReadString('\n')
		if err != nil || h == "\r\n" || h == "\n" {
			break
		}
	}
	fields := strings.Fields(line)
	if len(fields) < 2 || fields[0] != "GET" {
		fmt.Fprintf(c, "HTTP/1.0 405 Method Not Allowed\r\nContent-Length: 0\r\n\r\n")
		return
	}
	path := fields[1]
	if !strings.HasPrefix(path, "/px/") || !strings.HasSuffix(path, ".gif") {
		fmt.Fprintf(c, "HTTP/1.0 404 Not Found\r\nContent-Length: 0\r\n\r\n")
		return
	}
	fmt.Fprintf(c, "HTTP/1.0 200 OK\r\nContent-Type: image/gif\r\nContent-Length: %d\r\n\r\n", len(opened1x1))
	_, _ = c.Write(opened1x1)
}

// PixelURL renders the tracking URL embedded in a notification.
func PixelURL(host, id string) string {
	return fmt.Sprintf("http://%s/px/%s.gif", host, id)
}

// FetchPixel performs the HTTP GET a mail client makes when rendering the
// notification — used by the simulation to "open" an email from the
// recipient host's vantage. clk supplies the deadline base; nil means the
// real clock.
func FetchPixel(ctx context.Context, clk clock.Clock, n netsim.Network, addr, id string) error {
	if clk == nil {
		clk = clock.Real{}
	}
	c, err := n.DialContext(ctx, "tcp", addr)
	if err != nil {
		return err
	}
	defer c.Close()
	if err := c.SetDeadline(clk.Now().Add(pixelTimeout)); err != nil {
		return err
	}
	fmt.Fprintf(c, "GET /px/%s.gif HTTP/1.0\r\nHost: tracker\r\n\r\n", id)
	br := bufio.NewReader(c)
	status, err := br.ReadString('\n')
	if err != nil {
		return err
	}
	if !strings.Contains(status, "200") {
		return fmt.Errorf("study: tracker returned %q", strings.TrimSpace(status))
	}
	return nil
}
