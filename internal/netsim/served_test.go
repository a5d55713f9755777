package netsim

import (
	"context"
	"errors"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// scriptSession is a Session with a toy protocol: its greeting is
// greeting, and each Input answers "re:<input>;", except that "quit" is
// answered "bye;" and closes the session. hold, when set, blocks every
// Input after the greeting until it is closed, having signalled entered.
// It records the Abort calls and whether two calls ever overlapped.
type scriptSession struct {
	greeting  string
	closeOnHi bool // the greeting closes the session

	hold    chan struct{}
	entered chan struct{}

	inCall  atomic.Int32
	overlap atomic.Bool
	greeted bool

	mu     sync.Mutex
	aborts []bool // each Abort's unread flag; guarded by mu
}

func (s *scriptSession) enter() func() {
	if s.inCall.Add(1) > 1 {
		s.overlap.Store(true)
	}
	return func() { s.inCall.Add(-1) }
}

func (s *scriptSession) Input(in, out []byte) ([]byte, bool) {
	defer s.enter()()
	if !s.greeted {
		s.greeted = true
		return append(out, s.greeting...), s.closeOnHi
	}
	if s.hold != nil {
		s.entered <- struct{}{}
		<-s.hold
	}
	if string(in) == "quit" {
		return append(out, "bye;"...), true
	}
	out = append(out, "re:"...)
	out = append(out, in...)
	return append(out, ';'), false
}

func (s *scriptSession) Abort(unread bool) {
	defer s.enter()()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.aborts = append(s.aborts, unread)
}

func (s *scriptSession) abortsSeen() []bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]bool(nil), s.aborts...)
}

// serveScript listens on 10.9.0.1:25 of f and serves every dial with a
// fresh session from newSession, which it also records.
func serveScript(t *testing.T, f *Fabric, newSession func() *scriptSession) (net.Listener, *[]*scriptSession) {
	t.Helper()
	l, err := f.Host("10.9.0.1").Listen("tcp", ":25")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	var (
		mu       sync.Mutex
		sessions []*scriptSession
	)
	if !Serve(l, func(net.Addr) Session {
		s := newSession()
		mu.Lock()
		sessions = append(sessions, s)
		mu.Unlock()
		return s
	}) {
		t.Fatal("Serve declined a fabric listener")
	}
	return l, &sessions
}

func dialScript(t *testing.T, f *Fabric) net.Conn {
	t.Helper()
	c, err := f.Host("10.9.0.2").DialContext(context.Background(), "tcp", "10.9.0.1:25")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// readN reads exactly n bytes, each Read bounded by a one-second deadline.
func readN(t *testing.T, c net.Conn, n int) string {
	t.Helper()
	buf := make([]byte, n)
	if err := c.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatalf("read %d bytes: %v", n, err)
	}
	return string(buf)
}

// TestStreamSessionReplyReadableWhenWriteReturns: the session runs on the
// dialer's goroutine, so its greeting is buffered when the dial returns
// and a reply when the Write returns. Nothing else runs to produce them.
func TestStreamSessionReplyReadableWhenWriteReturns(t *testing.T) {
	f := NewFabric()
	_, sessions := serveScript(t, f, func() *scriptSession { return &scriptSession{greeting: "hi;"} })
	c := dialScript(t, f)
	defer c.Close()
	if got := readN(t, c, 3); got != "hi;" {
		t.Fatalf("greeting %q", got)
	}
	if n, err := c.Write([]byte("ping")); n != 4 || err != nil {
		t.Fatalf("Write = %d, %v", n, err)
	}
	if got := readN(t, c, 8); got != "re:ping;" {
		t.Fatalf("reply %q", got)
	}
	if len(*sessions) != 1 {
		t.Fatalf("%d sessions opened, want 1", len(*sessions))
	}
	if la, ok := c.LocalAddr().(Addr); !ok || la.Host != "10.9.0.2" {
		t.Errorf("LocalAddr = %v, want the dialer's address", c.LocalAddr())
	}
	if got := c.RemoteAddr().String(); got != "10.9.0.1:25" {
		t.Errorf("RemoteAddr = %v", got)
	}
}

// TestStreamSessionClosingGreetingReadsWhole: a greeting that closes the
// session (an SMTP 421) stays readable, deadlines included, until every
// byte of it is read; then Read returns io.EOF and the conn's deadlines
// and Writes fail as a stream's do once its server end has closed.
func TestStreamSessionClosingGreetingReadsWhole(t *testing.T) {
	f := NewFabric()
	const banner = "421 busy, try later\r\n"
	_, sessions := serveScript(t, f, func() *scriptSession { return &scriptSession{greeting: banner, closeOnHi: true} })
	c := dialScript(t, f)
	var got []byte
	buf := make([]byte, 4)
	for len(got) < len(banner) {
		if err := c.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
			t.Fatalf("SetReadDeadline with %d bytes unread: %v", len(banner)-len(got), err)
		}
		n, err := c.Read(buf)
		if err != nil {
			t.Fatalf("Read after %q: %v", got, err)
		}
		got = append(got, buf[:n]...)
	}
	if string(got) != banner {
		t.Fatalf("read %q, want %q", got, banner)
	}
	if n, err := c.Read(buf); n != 0 || err != io.EOF {
		t.Fatalf("Read after the banner = %d, %v; want io.EOF", n, err)
	}
	if err := c.SetReadDeadline(time.Now().Add(time.Second)); err != io.ErrClosedPipe {
		t.Fatalf("SetReadDeadline after the banner = %v, want io.ErrClosedPipe", err)
	}
	if _, err := c.Write([]byte("x")); err != io.ErrClosedPipe {
		t.Fatalf("Write after the banner = %v, want io.ErrClosedPipe", err)
	}
	c.Close()
	if a := (*sessions)[0].abortsSeen(); len(a) != 0 {
		t.Fatalf("a session the server closed was aborted: %v", a)
	}
}

// TestStreamSessionWriteAfterServerClosed: the Write that closes the
// session succeeds and its reply is readable; a later Write fails with
// io.ErrClosedPipe and reaches no Input.
func TestStreamSessionWriteAfterServerClosed(t *testing.T) {
	f := NewFabric()
	serveScript(t, f, func() *scriptSession { return &scriptSession{greeting: "hi;"} })
	c := dialScript(t, f)
	defer c.Close()
	if n, err := c.Write([]byte("quit")); n != 4 || err != nil {
		t.Fatalf("quitting Write = %d, %v", n, err)
	}
	if n, err := c.Write([]byte("more")); n != 0 || err != io.ErrClosedPipe {
		t.Fatalf("Write after the session closed = %d, %v; want io.ErrClosedPipe", n, err)
	}
	if got := readN(t, c, 7); got != "hi;bye;" {
		t.Fatalf("read %q", got)
	}
	if _, err := c.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("Read at the end = %v, want io.EOF", err)
	}
}

// TestStreamSessionCloseAbortsOnce: closing an open session aborts it
// exactly once, telling it whether replies were left unread; closing a
// session the server closed aborts nothing. Read and Write on a closed
// conn fail with io.ErrClosedPipe.
func TestStreamSessionCloseAbortsOnce(t *testing.T) {
	f := NewFabric()
	_, sessions := serveScript(t, f, func() *scriptSession { return &scriptSession{greeting: "hi;"} })
	for _, tc := range []struct {
		name   string
		script func(c net.Conn)
		want   []bool
	}{
		{"everything read", func(c net.Conn) { readN(t, c, 3) }, []bool{false}},
		{"greeting unread", func(net.Conn) {}, []bool{true}},
		{"reply half read", func(c net.Conn) {
			readN(t, c, 3)
			c.Write([]byte("ab"))
			readN(t, c, 3)
		}, []bool{true}},
		{"server closed", func(c net.Conn) { c.Write([]byte("quit")) }, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := len(*sessions)
			c := dialScript(t, f)
			tc.script(c)
			for i := 0; i < 3; i++ {
				if err := c.Close(); err != nil {
					t.Fatal(err)
				}
			}
			s := (*sessions)[before]
			if got := s.abortsSeen(); len(got) != len(tc.want) || (len(got) == 1 && got[0] != tc.want[0]) {
				t.Fatalf("aborts %v, want %v", got, tc.want)
			}
			if _, err := c.Read(make([]byte, 1)); err != io.ErrClosedPipe {
				t.Errorf("Read after Close = %v, want io.ErrClosedPipe", err)
			}
			if _, err := c.Write([]byte("x")); err != io.ErrClosedPipe {
				t.Errorf("Write after Close = %v, want io.ErrClosedPipe", err)
			}
			if err := c.SetDeadline(time.Now()); err != io.ErrClosedPipe {
				t.Errorf("SetDeadline after Close = %v, want io.ErrClosedPipe", err)
			}
		})
	}
}

// TestStreamSessionCloseDuringInput: a Close while a Write's Input runs
// returns at once and defers the Abort until that Input has returned, so
// the two never overlap; the Write still succeeds, and its replies count
// as unread.
func TestStreamSessionCloseDuringInput(t *testing.T) {
	f := NewFabric()
	hold, entered := make(chan struct{}), make(chan struct{}, 1)
	_, sessions := serveScript(t, f, func() *scriptSession {
		return &scriptSession{greeting: "hi;", hold: hold, entered: entered}
	})
	c := dialScript(t, f)
	readN(t, c, 3)
	wrote := make(chan error, 1)
	go func() {
		_, err := c.Write([]byte("slow"))
		wrote <- err
	}()
	<-entered
	c.Close()
	s := (*sessions)[0]
	if got := s.abortsSeen(); len(got) != 0 {
		t.Fatalf("Abort ran during Input: %v", got)
	}
	close(hold)
	if err := <-wrote; err != nil {
		t.Fatalf("the Write whose Input a Close interrupted = %v", err)
	}
	if got := s.abortsSeen(); len(got) != 1 || !got[0] {
		t.Fatalf("aborts %v, want one with its reply unread", got)
	}
	if s.overlap.Load() {
		t.Fatal("Input and Abort overlapped")
	}
}

// TestStreamSessionConcurrentReadWrite: a reader taking replies while
// writers run Inputs sees exactly the serial byte stream: every byte
// once, in Input order, and no two Inputs overlap.
func TestStreamSessionConcurrentReadWrite(t *testing.T) {
	f := NewFabric()
	_, sessions := serveScript(t, f, func() *scriptSession { return &scriptSession{greeting: "hi;"} })
	c := dialScript(t, f)
	defer c.Close()
	const writers, perWriter = 4, 100
	want := len("hi;") + writers*perWriter*len("re:w0-000;")
	got := make(chan string, 1)
	go func() {
		var all []byte
		buf := make([]byte, 7) // shorter than a reply
		c.SetReadDeadline(time.Now().Add(10 * time.Second))
		for len(all) < want {
			n, err := c.Read(buf)
			if err != nil {
				break
			}
			all = append(all, buf[:n]...)
		}
		got <- string(all)
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				msg := []byte{'w', byte('0' + w), '-', byte('0' + i/100), byte('0' + i/10%10), byte('0' + i%10)}
				if _, err := c.Write(msg); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	stream := <-got
	if len(stream) != want || !strings.HasPrefix(stream, "hi;") {
		t.Fatalf("read %d bytes, want %d starting with the greeting", len(stream), want)
	}
	// Each writer's replies appear whole and in its own order.
	next := make([]int, writers)
	for _, r := range strings.Split(strings.TrimSuffix(stream[len("hi;"):], ";"), ";") {
		if len(r) != len("re:w0-000") || !strings.HasPrefix(r, "re:w") {
			t.Fatalf("torn reply %q", r)
		}
		w := int(r[4] - '0')
		i := int(r[6]-'0')*100 + int(r[7]-'0')*10 + int(r[8]-'0')
		if i != next[w] {
			t.Fatalf("writer %d's reply %d came when %d was due", w, i, next[w])
		}
		next[w]++
	}
	if (*sessions)[0].overlap.Load() {
		t.Fatal("two Inputs overlapped")
	}
}

// TestStreamSessionReadDeadline: a Read with nothing buffered waits for
// its deadline and fails as a stream's does; a passed deadline fails a
// Read at once, even with replies buffered; clearing it lets them through.
func TestStreamSessionReadDeadline(t *testing.T) {
	f := NewFabric()
	serveScript(t, f, func() *scriptSession { return &scriptSession{greeting: "hi;"} })
	c := dialScript(t, f)
	defer c.Close()
	readN(t, c, 3)
	c.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	start := time.Now()
	_, err := c.Read(make([]byte, 8))
	var oe *net.OpError
	if !errors.As(err, &oe) || oe.Op != "read" || oe.Net != "pipe" || !errors.Is(err, os.ErrDeadlineExceeded) || !oe.Timeout() {
		t.Fatalf("Read past its deadline = %v, want a pipe read timeout", err)
	}
	if waited := time.Since(start); waited < 25*time.Millisecond {
		t.Fatalf("Read gave up after %v, before its deadline", waited)
	}
	c.Write([]byte("x"))
	c.SetReadDeadline(time.Now().Add(-time.Second))
	if _, err := c.Read(make([]byte, 8)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("Read with a passed deadline = %v", err)
	}
	c.SetReadDeadline(time.Time{})
	if got := readN(t, c, 5); got != "re:x;" {
		t.Fatalf("read %q after clearing the deadline", got)
	}
}

// TestStreamSessionListenerCloseWaitsForInput: closing the listener
// returns only once the Input in flight has, and then refuses new dials
// and Writes on the conns it served.
func TestStreamSessionListenerCloseWaitsForInput(t *testing.T) {
	f := NewFabric()
	hold, entered := make(chan struct{}), make(chan struct{}, 1)
	l, _ := serveScript(t, f, func() *scriptSession {
		return &scriptSession{greeting: "hi;", hold: hold, entered: entered}
	})
	c := dialScript(t, f)
	defer c.Close()
	idle := dialScript(t, f)
	defer idle.Close()
	go c.Write([]byte("slow"))
	<-entered
	closed := make(chan struct{})
	go func() {
		l.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("listener Close returned while an Input ran")
	case <-time.After(50 * time.Millisecond):
	}
	close(hold)
	<-closed
	if _, err := f.Host("10.9.0.2").DialContext(context.Background(), "tcp", "10.9.0.1:25"); !errors.Is(err, ErrRefused) {
		t.Fatalf("dial after Close = %v, want ErrRefused", err)
	}
	if _, err := idle.Write([]byte("late")); err != io.ErrClosedPipe {
		t.Fatalf("Write after the listener closed = %v, want io.ErrClosedPipe", err)
	}
	if got := readN(t, idle, 3); got != "hi;" {
		t.Fatalf("greeting after the listener closed: %q", got)
	}
}

// resetDials is a lossless FaultInjector that resets every TCP dial after
// the dialer has read that many bytes.
type resetDials int

func (d resetDials) DialTCP(src, dst Addr) DialFault { return DialFault{ResetAfter: int(d)} }

func (resetDials) Datagram(from, to Addr, payload []byte) ([]byte, DatagramVerdict) {
	return nil, VerdictPass
}

func (resetDials) DropsDatagrams() bool { return false }

// TestStreamSessionResetConn: a conn-reset fault wraps the served conn.
// Once the dialer has read its budget, the next Read trips the reset,
// which closes the conn and so aborts the session, with the rest of the
// reply unread.
func TestStreamSessionResetConn(t *testing.T) {
	f := NewFabric()
	f.Faults = resetDials(5)
	_, sessions := serveScript(t, f, func() *scriptSession { return &scriptSession{greeting: "hi;"} })
	c := dialScript(t, f)
	defer c.Close()
	if got := readN(t, c, 3); got != "hi;" {
		t.Fatalf("greeting %q", got)
	}
	c.Write([]byte("abc"))
	if got := readN(t, c, 2); got != "re" {
		t.Fatalf("read %q within the budget", got)
	}
	if _, err := c.Read(make([]byte, 8)); !errors.Is(err, ErrReset) {
		t.Fatalf("Read past the budget = %v, want ErrReset", err)
	}
	if got := (*sessions)[0].abortsSeen(); len(got) != 1 || !got[0] {
		t.Fatalf("aborts %v, want one with the reply unread", got)
	}
	if _, err := c.Write([]byte("x")); !errors.Is(err, ErrReset) {
		t.Fatalf("Write after the reset = %v, want ErrReset", err)
	}
}

// TestStreamSessionServeDeclines: Serve attaches only to a fabric
// listener that has handed out no stream, on a fabric whose injector (if
// any) drops no datagram.
func TestStreamSessionServeDeclines(t *testing.T) {
	open := func(net.Addr) Session { return &scriptSession{} }
	listen := func(f *Fabric) net.Listener {
		l, err := f.Host("10.9.0.1").Listen("tcp", ":25")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		return l
	}
	for _, tc := range []struct {
		name   string
		faults FaultInjector
		want   bool
	}{
		{"no injector", nil, true},
		{"lossless injector", tarpitDials(time.Second), true},
		{"dropping injector", dropDatagrams(func(from, to Addr) bool { return false }), false},
	} {
		f := NewFabric()
		f.Faults = tc.faults
		if got := Serve(listen(f), open); got != tc.want {
			t.Errorf("%s: Serve = %v, want %v", tc.name, got, tc.want)
		}
	}

	f := NewFabric()
	l := listen(f)
	c, err := f.Host("10.9.0.2").DialContext(context.Background(), "tcp", "10.9.0.1:25")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if Serve(l, open) {
		t.Error("Serve attached to a listener with a stream queued for Accept")
	}
	if Serve(struct{ net.Listener }{listen(NewFabric())}, open) {
		t.Error("Serve attached to a listener that is not the fabric's")
	}
}
