package netsim

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"spfail/internal/clock"
)

// tcpPair dials l's address from cli and accepts the server end.
func tcpPair(t *testing.T, cli Network, l net.Listener) (c, s net.Conn) {
	t.Helper()
	c, err := cli.DialContext(context.Background(), "tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if s, err = l.Accept(); err != nil {
		t.Fatal(err)
	}
	return c, s
}

// streamPair returns both ends of a fresh fabric TCP connection, closed
// when the test ends.
func streamPair(t *testing.T, f *Fabric) (c, s net.Conn) {
	t.Helper()
	l, err := f.Host("192.0.2.25").Listen("tcp", ":0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c, s = tcpPair(t, f.Host("198.51.100.1"), l)
	t.Cleanup(func() {
		c.Close()
		s.Close()
	})
	return c, s
}

// result is one Read or Write outcome.
type result struct {
	n   int
	err error
}

// readAsync starts a Read on c.
func readAsync(c net.Conn) <-chan result {
	ch := make(chan result, 1)
	go func() {
		n, err := c.Read(make([]byte, 16))
		ch <- result{n, err}
	}()
	return ch
}

// await returns the outcome of an async operation, failing the test when
// it has not finished within a generous bound.
func await(t *testing.T, ch <-chan result) result {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(10 * time.Second):
		t.Fatal("operation still blocked after 10s")
		return result{}
	}
}

// checkTimeout asserts err is the deadline error net.Pipe returns for op
// ("read" or "write"). Its text reaches trace events, so it must match.
func checkTimeout(t *testing.T, op string, err error) {
	t.Helper()
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("%s error = %v, want a timeout wrapping os.ErrDeadlineExceeded", op, err)
	}
	if want := op + " pipe: i/o timeout"; err.Error() != want {
		t.Fatalf("%s error text = %q, want %q", op, err, want)
	}
}

func TestStreamExtendedDeadlineKeepsWaiting(t *testing.T) {
	c, s := streamPair(t, NewFabric())
	c.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	c.SetReadDeadline(time.Now().Add(time.Hour))
	ch := readAsync(c)
	time.Sleep(120 * time.Millisecond) // well past the first deadline
	if _, err := s.Write([]byte("hi")); err != nil {
		t.Fatalf("write to a reader whose deadline was extended: %v", err)
	}
	if r := await(t, ch); r.err != nil || r.n != 2 {
		t.Fatalf("read = %d, %v; want 2 bytes", r.n, r.err)
	}

	// With nothing to read, the read ends at the later deadline, not at
	// the first timer.
	start := time.Now()
	c.SetReadDeadline(start.Add(30 * time.Millisecond))
	c.SetReadDeadline(start.Add(200 * time.Millisecond))
	r := await(t, readAsync(c))
	checkTimeout(t, "read", r.err)
	if waited := time.Since(start); waited < 190*time.Millisecond {
		t.Fatalf("read timed out after %v, before the extended deadline", waited)
	}
}

// TestStreamEndsShareOneTimer blocks a read on each end, the dialer's
// with the earlier deadline. The connection's one timer is armed for that
// deadline and wakes both ends when it fires: the dialer's read times out,
// and the listener's re-arms the timer and waits out its own deadline. The
// first Close stops the timer.
func TestStreamEndsShareOneTimer(t *testing.T) {
	c, s := streamPair(t, NewFabric())
	start := time.Now()
	c.SetReadDeadline(start.Add(50 * time.Millisecond))
	s.SetReadDeadline(start.Add(250 * time.Millisecond))
	cr, sr := readAsync(c), readAsync(s)
	checkTimeout(t, "read", await(t, cr).err)
	if waited := time.Since(start); waited < 50*time.Millisecond || waited >= 240*time.Millisecond {
		t.Fatalf("dialer's read timed out after %v, want between its 50ms deadline and the listener's", waited)
	}
	checkTimeout(t, "read", await(t, sr).err)
	if waited := time.Since(start); waited < 240*time.Millisecond {
		t.Fatalf("listener's read timed out after %v, at the dialer's deadline", waited)
	}

	st := c.(*streamConn).s
	s.SetReadDeadline(time.Now().Add(time.Hour))
	sr = readAsync(s)
	for armed := false; !armed; { // until the listener's read waits
		time.Sleep(time.Millisecond)
		st.mu.Lock()
		armed = !st.timer.due.IsZero()
		st.mu.Unlock()
	}
	c.Close()
	if r := await(t, sr); r.err != io.EOF {
		t.Fatalf("listener's read after the dialer closed = %v, want EOF", r.err)
	}
	st.mu.Lock()
	due, pending := st.timer.due, st.timer.t.Stop()
	st.mu.Unlock()
	if !due.IsZero() || pending {
		t.Fatalf("timer after the first Close: due %v, pending %v; want stopped", due, pending)
	}
}

func TestStreamEarlierDeadlineWakesBlockedOps(t *testing.T) {
	for _, tc := range []struct {
		name  string
		delay time.Duration
	}{
		{"earlier", 20 * time.Millisecond},
		{"past", -time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, _ := streamPair(t, NewFabric())
			c.SetDeadline(time.Now().Add(time.Hour))
			rd := readAsync(c)
			wr := make(chan result, 1)
			go func() {
				n, err := c.Write([]byte("nobody reads this"))
				wr <- result{n, err}
			}()
			time.Sleep(20 * time.Millisecond) // let both block
			c.SetDeadline(time.Now().Add(tc.delay))
			checkTimeout(t, "read", await(t, rd).err)
			if r := await(t, wr); r.n != 0 {
				t.Fatalf("timed-out write reports %d bytes", r.n)
			} else {
				checkTimeout(t, "write", r.err)
			}
		})
	}
}

func TestStreamExpiredDeadlineMovedLaterReadsAgain(t *testing.T) {
	c, s := streamPair(t, NewFabric())
	c.SetReadDeadline(time.Now().Add(-time.Second))
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Fatal("read past its deadline succeeded")
	} else {
		checkTimeout(t, "read", err)
	}
	c.SetReadDeadline(time.Now().Add(time.Hour))
	ch := readAsync(c)
	if _, err := s.Write([]byte("again")); err != nil {
		t.Fatal(err)
	}
	if r := await(t, ch); r.err != nil || r.n != 5 {
		t.Fatalf("read after moving the deadline = %d, %v", r.n, r.err)
	}
}

func TestStreamZeroDeadlineClears(t *testing.T) {
	c, s := streamPair(t, NewFabric())

	// A pending deadline is cleared before it fires.
	c.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	c.SetReadDeadline(time.Time{})
	ch := readAsync(c)
	time.Sleep(80 * time.Millisecond)
	if _, err := s.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if r := await(t, ch); r.err != nil {
		t.Fatalf("read with a cleared deadline: %v", r.err)
	}

	// An expired deadline is cleared too.
	c.SetWriteDeadline(time.Now().Add(-time.Second))
	c.SetWriteDeadline(time.Time{})
	rd := readAsync(s)
	if _, err := c.Write([]byte("y")); err != nil {
		t.Fatalf("write with a cleared expired deadline: %v", err)
	}
	if r := await(t, rd); r.err != nil {
		t.Fatal(r.err)
	}
}

// TestStreamClosedEndErrors requires the error values net.Pipe returns
// once either end is closed.
func TestStreamClosedEndErrors(t *testing.T) {
	cases := []struct {
		name string
		want error
		run  func(a, b net.Conn) error
	}{
		{"read after peer close", io.EOF, func(a, b net.Conn) error {
			b.Close()
			_, err := a.Read(make([]byte, 1))
			return err
		}},
		{"read on closed end", io.ErrClosedPipe, func(a, b net.Conn) error {
			a.Close()
			_, err := a.Read(make([]byte, 1))
			return err
		}},
		{"write on closed end", io.ErrClosedPipe, func(a, b net.Conn) error {
			a.Close()
			_, err := a.Write([]byte("x"))
			return err
		}},
		{"write after peer close", io.ErrClosedPipe, func(a, b net.Conn) error {
			b.Close()
			_, err := a.Write([]byte("x"))
			return err
		}},
		{"blocked read when peer closes", io.EOF, func(a, b net.Conn) error {
			ch := readAsync(a)
			time.Sleep(10 * time.Millisecond)
			b.Close()
			return (<-ch).err
		}},
		{"blocked write when peer closes", io.ErrClosedPipe, func(a, b net.Conn) error {
			ch := make(chan error, 1)
			go func() {
				_, err := a.Write([]byte("x"))
				ch <- err
			}()
			time.Sleep(10 * time.Millisecond)
			b.Close()
			return <-ch
		}},
		{"SetDeadline after close", io.ErrClosedPipe, func(a, b net.Conn) error {
			a.Close()
			return a.SetDeadline(time.Now().Add(time.Hour))
		}},
		{"SetReadDeadline after peer close", io.ErrClosedPipe, func(a, b net.Conn) error {
			b.Close()
			return a.SetReadDeadline(time.Now().Add(time.Hour))
		}},
		{"SetWriteDeadline after peer close", io.ErrClosedPipe, func(a, b net.Conn) error {
			b.Close()
			return a.SetWriteDeadline(time.Now().Add(time.Hour))
		}},
		{"second Close", nil, func(a, b net.Conn) error {
			a.Close()
			return a.Close()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, s := streamPair(t, NewFabric())
			if got := tc.run(c, s); got != tc.want {
				t.Fatalf("error = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestStreamDeadlineFollowsFabricClock sets a deadline on a simulated
// clock that never advances: the remaining budget is what counts, waited
// out in wall time.
func TestStreamDeadlineFollowsFabricClock(t *testing.T) {
	f := NewFabric()
	sim := clock.NewSim(time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC))
	f.Clock = sim
	c, _ := streamPair(t, f)
	start := time.Now()
	c.SetReadDeadline(sim.Now().Add(50 * time.Millisecond))
	checkTimeout(t, "read", await(t, readAsync(c)).err)
	if waited := time.Since(start); waited < 40*time.Millisecond {
		t.Fatalf("virtual 50ms deadline expired after %v of wall time", waited)
	}
}

// TestStreamConcurrentDeadlinesAndIO moves deadlines earlier, later, into
// the past and to zero while both ends exchange data, then closes both
// ends mid-flight. Run it under -race: timer callbacks, Set*Deadline and
// the blocked operations all meet on the end's mutex.
func TestStreamConcurrentDeadlinesAndIO(t *testing.T) {
	c, s := streamPair(t, NewFabric())
	var wg sync.WaitGroup
	stop := make(chan struct{})
	loop := func(op func()) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				op()
			}
		}
	}
	for _, conn := range []net.Conn{c, s} {
		wg.Add(2)
		go loop(func() { conn.Write([]byte("payload!")) })
		go loop(func() { conn.Read(make([]byte, 5)) })
	}
	offsets := []time.Duration{time.Millisecond, time.Hour, -time.Second, 0, 50 * time.Microsecond, time.Minute}
	for _, conn := range []net.Conn{c, s} {
		wg.Add(1)
		go func(conn net.Conn) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				var at time.Time
				if off := offsets[i%len(offsets)]; off != 0 {
					at = time.Now().Add(off)
				}
				switch i % 3 {
				case 0:
					conn.SetDeadline(at)
				case 1:
					conn.SetReadDeadline(at)
				default:
					conn.SetWriteDeadline(at)
				}
			}
		}(conn)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	c.Close()
	s.Close()
	wg.Wait()
	if err := c.SetDeadline(time.Now().Add(time.Hour)); err != io.ErrClosedPipe {
		t.Fatalf("SetDeadline after close = %v", err)
	}
}

// TestStreamConcurrentWritesStayWhole has several goroutines write
// distinct fixed-size records on one end while the peer reads in chunks
// smaller than a record. Each Write is taken over several reads, yet no
// other Write's bytes may land between them: every record must arrive
// whole.
func TestStreamConcurrentWritesStayWhole(t *testing.T) {
	c, s := streamPair(t, NewFabric())
	const writers, records, size = 8, 100, 16
	want := make(map[string]bool, writers*records)
	record := func(w, r int) string { return fmt.Sprintf("%-*s", size, fmt.Sprintf("w%d r%d", w, r)) }
	for w := 0; w < writers; w++ {
		for r := 0; r < records; r++ {
			want[record(w, r)] = true
		}
	}
	// A broken stream fails on these deadlines instead of hanging.
	c.SetWriteDeadline(time.Now().Add(10 * time.Second))
	s.SetReadDeadline(time.Now().Add(10 * time.Second))
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for r := 0; r < records; r++ {
				if _, err := c.Write([]byte(record(w, r))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	close(start)
	got := make([]byte, 0, len(want)*size)
	chunk := make([]byte, 5)
	for len(got) < cap(got) {
		n, err := s.Read(chunk)
		if err != nil {
			t.Fatalf("read after %d of %d bytes: %v", len(got), cap(got), err)
		}
		got = append(got, chunk[:n]...)
		runtime.Gosched() // let the other writers queue up behind the one being read
	}
	wg.Wait()
	for i := 0; i < len(got); i += size {
		rec := string(got[i : i+size])
		if !want[rec] {
			t.Fatalf("record %d = %q: not one Write's bytes, or a repeat", i/size, rec)
		}
		delete(want, rec)
	}
}
