package netsim

import (
	"time"

	"spfail/internal/clock"
)

// deadlineTimer is the one wall-clock deadline timer of a fabric TCP
// connection or UDP endpoint. Its owner's operations wait on condition
// variables over the owner's mutex, which also guards the timer. An
// operation about to wait with a deadline set arms the timer for that
// deadline unless it is already due earlier, so the timer only ever moves
// earlier. When it fires, the owner wakes every waiting operation; each
// checks its own deadline with passed, and one whose deadline lies later
// arms the timer again before it waits. Close stops it, so nothing keeps
// a closed connection or endpoint reachable.
type deadlineTimer struct {
	due time.Time   // when t fires; zero when it is not armed
	t   *time.Timer // made by the first wait that needs one
}

// firer is the owner of a deadlineTimer: fire takes the owner's mutex,
// calls fired and wakes the owner's waiting operations.
type firer interface{ fire() }

// arm makes the timer fire by at, unless at is zero or the timer is
// already due by then. The caller holds the owner's mutex.
func (d *deadlineTimer) arm(at time.Time, owner firer) {
	if at.IsZero() || (!d.due.IsZero() && !at.Before(d.due)) {
		return
	}
	//spfail:allow wallclock deadline timers run on the wall clock; see toWall
	wait := time.Until(at)
	if d.t == nil {
		//spfail:allow wallclock deadline timers run on the wall clock; see toWall
		d.t = time.AfterFunc(wait, owner.fire)
	} else {
		d.t.Reset(wait)
	}
	d.due = at
}

// fired records that the timer went off. The caller holds the owner's
// mutex.
func (d *deadlineTimer) fired() { d.due = time.Time{} }

// stop disarms the timer. The caller holds the owner's mutex.
func (d *deadlineTimer) stop() {
	if d.t != nil {
		d.t.Stop()
	}
	d.due = time.Time{}
}

// passed reports whether the wall-clock deadline at is set and has passed.
// Every operation asks before it waits and again whenever it wakes, so a
// deadline that passed while nothing waited still fails the next one.
func passed(at time.Time) bool {
	//spfail:allow wallclock deadlines run on the wall clock; see toWall
	return !at.IsZero() && !time.Now().Before(at)
}

// toWall converts a deadline on clk, the fabric clock, to the wall clock
// the deadline timers run on. The remaining budget (t minus clk's now) is
// preserved; a virtual clock that later jumps forward cannot
// retroactively shorten it, which is acceptable for the simulator's
// politeness bounds.
func toWall(clk clock.Clock, t time.Time) time.Time {
	if t.IsZero() {
		return t
	}
	//spfail:allow wallclock translating a virtual deadline onto the wall-clock timeline the deadline timers run on
	return time.Now().Add(t.Sub(clk.Now()))
}
