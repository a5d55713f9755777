package checkpoint

import (
	"encoding/binary"
	"fmt"
	"strings"
	"time"

	"spfail/internal/core"
	"spfail/internal/faults"
	"spfail/internal/retry"
)

// A segment payload is a versioned binary encoding of one Stage:
//
//	magic "SPFSEG", then the store format version in one byte
//	Extra, Trace, Resources  each a uvarint length and that many raw bytes
//	Clock                    varint Unix seconds, uvarint nanoseconds
//	ProbeSeq                 uvarint
//	Breakers                 uvarint count; per breaker: key, state,
//	                         varint failures, open-until time
//	Faults                   uvarint count; per counter: key, uvarint seq
//	Targets                  uvarint count, uvarint total of addresses;
//	                         per target: domain, uvarint address count,
//	                         the addresses, one has-MX byte (0 or 1)
//	Outcomes                 uvarint count, uvarint totals of IDs, patterns
//	                         and classes; per row: addr, status, method, one
//	                         flag byte, fail stage, error, uvarint ID count,
//	                         the IDs, username, varint attempts, fail reason,
//	                         patterns, classes
//
// Patterns and Classes are written as a uvarint count plus one, zero
// meaning a nil slice, so a restored Observation keeps nil apart from
// empty; every other empty slice restores as nil.
//
// Each string is a uvarint tag. An even tag refers to entry tag/2 of the
// segment's table, where entry 0 is "" and entry i is the i-th value the
// segment defined. An odd tag is followed by tag/4 bytes of literal
// text, which also becomes the table's next entry when tag&2 is set. The
// encoder defines table entries for the fields whose values repeat
// across rows (status, method, fail stage, username, fail reason, class,
// breaker state, and errors that do not name the row's own address) and
// writes the rest inline, so values unique to a row are never interned.
//
// Everything after Resources holds no raw bytes, and the decoder copies
// it to one string that every decoded string is sliced from. Raw fields
// are sliced from the payload itself: a replayed stage's trace bytes do
// not stay reachable through the outcome rows it restores.

// segmentMagic opens every segment payload. The byte after it is the
// store format version, the manifest's: one build writes a whole store.
const segmentMagic = "SPFSEG"

// Outcome row flag bits.
const (
	flagNoMsgRan = 1 << iota
	flagBlankMsgRan
	flagPolicyFetched
	flagLivenessSeen
	flagsKnown = flagNoMsgRan | flagBlankMsgRan | flagPolicyFetched | flagLivenessSeen
)

// tableHint sizes both ends' tables: a round's segment defines about a
// dozen entries.
const tableHint = 16

// Smallest encodings of one element of each section, in bytes. A count
// is checked against the bytes left divided by these before anything is
// allocated for it.
const (
	minBreakerBytes = 5  // key, state, failures, seconds, nanoseconds
	minFaultBytes   = 2  // key, seq
	minTargetBytes  = 3  // domain, address count, has-MX
	minOutcomeBytes = 12 // every field of a row at its shortest
)

// EncodeStage serializes a stage payload for Store.Commit. The bytes are
// a function of st alone.
func EncodeStage(st *Stage) ([]byte, error) {
	e := encoder{b: make([]byte, 0, sizeHint(st)), table: make(map[string]uint64, tableHint)}
	e.b = append(e.b, segmentMagic...)
	e.b = append(e.b, manifestVersion)
	e.blob(st.Extra)
	e.blob(st.Trace)
	e.blob(st.Resources)
	e.time(st.Clock)
	e.uvarint(st.ProbeSeq)

	e.uvarint(uint64(len(st.Breakers)))
	for _, b := range st.Breakers {
		e.lit(b.Key)
		e.ref(string(b.State))
		e.varint(int64(b.Failures))
		e.time(b.OpenUntil)
	}

	e.uvarint(uint64(len(st.Faults)))
	for _, f := range st.Faults {
		e.lit(f.Key)
		e.uvarint(f.Seq)
	}

	var addrs int
	for _, t := range st.Targets {
		addrs += len(t.Addrs)
	}
	e.uvarint(uint64(len(st.Targets)))
	e.uvarint(uint64(addrs))
	for _, t := range st.Targets {
		e.lit(t.Domain)
		e.lits(t.Addrs)
		if t.HasMX {
			e.b = append(e.b, 1)
		} else {
			e.b = append(e.b, 0)
		}
	}

	var ids, patterns, classes int
	for i := range st.Outcomes {
		r := &st.Outcomes[i]
		ids += len(r.IDs)
		patterns += len(r.Observation.Patterns)
		classes += len(r.Observation.Classes)
	}
	e.uvarint(uint64(len(st.Outcomes)))
	e.uvarint(uint64(ids))
	e.uvarint(uint64(patterns))
	e.uvarint(uint64(classes))
	for i := range st.Outcomes {
		e.outcome(&st.Outcomes[i])
	}
	return e.b, nil
}

// sizeHint estimates a stage's encoded size, so that a round's payload
// is built in one allocation.
func sizeHint(st *Stage) int {
	return len(segmentMagic) + 64 + len(st.Extra) + len(st.Trace) + len(st.Resources) +
		32*len(st.Breakers) + 40*len(st.Faults) + 48*len(st.Targets) + 64*len(st.Outcomes)
}

type encoder struct {
	b []byte
	// table maps each defined table value to its index.
	table map[string]uint64
}

func (e *encoder) uvarint(x uint64) { e.b = binary.AppendUvarint(e.b, x) }
func (e *encoder) varint(x int64)   { e.b = binary.AppendVarint(e.b, x) }

func (e *encoder) blob(b []byte) {
	e.uvarint(uint64(len(b)))
	e.b = append(e.b, b...)
}

func (e *encoder) time(t time.Time) {
	e.varint(t.Unix())
	e.uvarint(uint64(t.Nanosecond()))
}

// lit writes s inline, outside the table.
func (e *encoder) lit(s string) {
	e.uvarint(uint64(len(s))<<2 | 1)
	e.b = append(e.b, s...)
}

// lits writes a count and each string inline.
func (e *encoder) lits(ss []string) {
	e.uvarint(uint64(len(ss)))
	for _, s := range ss {
		e.lit(s)
	}
}

// ref writes s as a table reference, defining the entry on first use.
func (e *encoder) ref(s string) {
	if s == "" {
		e.b = append(e.b, 0)
		return
	}
	if i, ok := e.table[s]; ok {
		e.uvarint(i << 1)
		return
	}
	e.table[s] = uint64(len(e.table)) + 1
	e.uvarint(uint64(len(s))<<2 | 3)
	e.b = append(e.b, s...)
}

func (e *encoder) outcome(r *OutcomeRow) {
	e.lit(r.Addr)
	e.ref(string(r.Status))
	e.ref(string(r.Method))
	var flags byte
	if r.NoMsgRan {
		flags |= flagNoMsgRan
	}
	if r.BlankMsgRan {
		flags |= flagBlankMsgRan
	}
	if r.Observation.PolicyFetched {
		flags |= flagPolicyFetched
	}
	if r.Observation.LivenessSeen {
		flags |= flagLivenessSeen
	}
	e.b = append(e.b, flags)
	e.ref(r.FailStage)
	// An error naming the row's own address (a refused dial, a reset
	// read) cannot repeat across rows; protocol replies do.
	if r.Addr != "" && strings.Contains(r.Err, r.Addr) {
		e.lit(r.Err)
	} else {
		e.ref(r.Err)
	}
	e.lits(r.IDs)
	e.ref(r.Username)
	e.varint(int64(r.Attempts))
	e.ref(r.FailReason)
	if p := r.Observation.Patterns; p == nil {
		e.b = append(e.b, 0)
	} else {
		e.uvarint(uint64(len(p)) + 1)
		for _, s := range p {
			e.lit(s)
		}
	}
	if c := r.Observation.Classes; c == nil {
		e.b = append(e.b, 0)
	} else {
		e.uvarint(uint64(len(c)) + 1)
		for _, s := range c {
			e.ref(string(s))
		}
	}
}

// DecodeStage parses a segment payload previously produced by
// EncodeStage. Extra, Trace and Resources alias payload; every string is
// sliced from one copy of the rest of it. Anything this build cannot
// fully interpret — another magic or version, a truncation, trailing
// bytes, a reference past the table, an unknown flag, a count the bytes
// left cannot hold — is rejected with ErrResumeImpossible: such a payload
// cannot seed a byte-identical resume.
func DecodeStage(payload []byte) (*Stage, error) {
	if len(payload) <= len(segmentMagic) || string(payload[:len(segmentMagic)]) != segmentMagic {
		return nil, fmt.Errorf("checkpoint: %w: malformed stage payload: no segment header", ErrResumeImpossible)
	}
	if v := payload[len(segmentMagic)]; v != manifestVersion {
		return nil, fmt.Errorf("checkpoint: %w: segment format version %d, this build reads %d",
			ErrResumeImpossible, v, manifestVersion)
	}
	rest := payload[len(segmentMagic)+1:]
	st := &Stage{}
	var err error
	if st.Extra, rest, err = cutBlob(rest, "extra"); err != nil {
		return nil, err
	}
	if st.Trace, rest, err = cutBlob(rest, "trace"); err != nil {
		return nil, err
	}
	if st.Resources, rest, err = cutBlob(rest, "resources"); err != nil {
		return nil, err
	}
	d := decoder{s: string(rest), base: len(payload) - len(rest), table: make([]string, 0, tableHint)}
	st.Clock = d.time()
	st.ProbeSeq = d.uvarint()
	d.breakers(st)
	d.faults(st)
	d.targets(st)
	d.outcomes(st)
	if d.err == nil && d.off != len(d.s) {
		d.fail("%d trailing bytes", len(d.s)-d.off)
	}
	if d.err != nil {
		return nil, fmt.Errorf("checkpoint: %w: malformed stage payload: %v", ErrResumeImpossible, d.err)
	}
	return st, nil
}

// cutBlob splits a length-prefixed raw field off b. An empty field
// decodes as nil.
func cutBlob(b []byte, what string) ([]byte, []byte, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 || n > uint64(len(b)-k) {
		return nil, nil, fmt.Errorf("checkpoint: %w: malformed stage payload: %s length runs past the payload", ErrResumeImpossible, what)
	}
	b = b[k:]
	if n == 0 {
		return nil, b, nil
	}
	return b[:n:n], b[n:], nil
}

// decoder reads the string section of a payload. The first failure
// sticks: every later read returns a zero value and the error reported
// is the first one.
type decoder struct {
	s     string
	off   int
	base  int // offset of s in the payload, for error positions
	table []string
	err   error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("byte %d: %s", d.base+d.off, fmt.Sprintf(format, args...))
	}
	d.off = len(d.s)
}

func (d *decoder) byte() byte {
	if d.off >= len(d.s) {
		d.fail("truncated")
		return 0
	}
	c := d.s[d.off]
	d.off++
	return c
}

func (d *decoder) uvarint() uint64 {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if d.off >= len(d.s) {
			d.fail("truncated")
			return 0
		}
		c := d.s[d.off]
		d.off++
		if c < 0x80 {
			if shift == 63 && c > 1 {
				break
			}
			return x | uint64(c)<<shift
		}
		x |= uint64(c&0x7f) << shift
	}
	d.fail("varint overflows 64 bits")
	return 0
}

func (d *decoder) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (d *decoder) time() time.Time {
	sec := d.varint()
	nsec := d.uvarint()
	if nsec >= 1e9 {
		d.fail("nanoseconds %d out of range", nsec)
		return time.Time{}
	}
	return time.Unix(sec, int64(nsec)).UTC()
}

// count reads an element count, checking before anything is allocated
// that the bytes left can hold that many elements of at least size bytes
// each.
func (d *decoder) count(what string, size int) int {
	n := d.uvarint()
	if left := uint64(len(d.s) - d.off); n > left/uint64(size) {
		d.fail("%s count %d exceeds what the %d bytes left can hold", what, n, left)
		return 0
	}
	return int(n)
}

func (d *decoder) str() string {
	tag := d.uvarint()
	if tag&1 == 0 {
		i := tag >> 1
		switch {
		case i == 0:
			return ""
		case i > uint64(len(d.table)):
			d.fail("table index %d past the %d entries defined", i, len(d.table))
			return ""
		}
		return d.table[i-1]
	}
	n := tag >> 2
	if n > uint64(len(d.s)-d.off) {
		d.fail("string of %d bytes runs past the payload", n)
		return ""
	}
	s := d.s[d.off : d.off+int(n)]
	d.off += int(n)
	if tag&2 != 0 {
		d.table = append(d.table, s)
	}
	return s
}

// strs reads a count and that many strings into the next elements of
// pool. A zero count decodes as nil.
func (d *decoder) strs(pool *[]string, what string) []string {
	n := d.uvarint()
	if n == 0 {
		return nil
	}
	out := take(d, pool, n, what)
	for i := range out {
		out[i] = d.str()
	}
	return out
}

// pool allocates a section's declared total of elements of a nested
// list, which the section's rows then take their slices from.
func pool[T any](d *decoder, what string) []T {
	return make([]T, d.count(what, 1))
}

// take carves the next n elements off pool.
func take[T any](d *decoder, pool *[]T, n uint64, what string) []T {
	if n > uint64(len(*pool)) {
		d.fail("more %s than the section's declared total", what)
		return nil
	}
	out := (*pool)[:n:n]
	*pool = (*pool)[n:]
	return out
}

// drained checks that a section used exactly its declared total.
func drained[T any](d *decoder, pool []T, what string) {
	if len(pool) != 0 {
		d.fail("%d fewer %s than the section declared", len(pool), what)
	}
}

func (d *decoder) breakers(st *Stage) {
	n := d.count("breaker", minBreakerBytes)
	if n == 0 {
		return
	}
	st.Breakers = make([]retry.BreakerSnapshot, n)
	for i := range st.Breakers {
		b := &st.Breakers[i]
		b.Key = d.str()
		b.State = retry.BreakerState(d.str())
		b.Failures = int(d.varint())
		b.OpenUntil = d.time()
	}
}

func (d *decoder) faults(st *Stage) {
	n := d.count("fault counter", minFaultBytes)
	if n == 0 {
		return
	}
	st.Faults = make([]faults.SeqEntry, n)
	for i := range st.Faults {
		st.Faults[i].Key = d.str()
		st.Faults[i].Seq = d.uvarint()
	}
}

func (d *decoder) targets(st *Stage) {
	n := d.count("target", minTargetBytes)
	addrs := pool[string](d, "target address")
	if n > 0 {
		st.Targets = make([]TargetRow, n)
	}
	for i := range st.Targets {
		t := &st.Targets[i]
		t.Domain = d.str()
		t.Addrs = d.strs(&addrs, "target addresses")
		switch d.byte() {
		case 0:
		case 1:
			t.HasMX = true
		default:
			d.fail("has-MX byte is neither 0 nor 1")
		}
	}
	drained(d, addrs, "target addresses")
}

func (d *decoder) outcomes(st *Stage) {
	n := d.count("outcome", minOutcomeBytes)
	ids := pool[string](d, "ID")
	patterns := pool[string](d, "pattern")
	classes := pool[core.BehaviorClass](d, "class")
	if n > 0 {
		st.Outcomes = make([]OutcomeRow, n)
	}
	for i := range st.Outcomes {
		r := &st.Outcomes[i]
		r.Addr = d.str()
		r.Status = core.Status(d.str())
		r.Method = core.ProbeMethod(d.str())
		flags := d.byte()
		if flags&^flagsKnown != 0 {
			d.fail("unknown outcome flags %#x", flags&^flagsKnown)
		}
		r.NoMsgRan = flags&flagNoMsgRan != 0
		r.BlankMsgRan = flags&flagBlankMsgRan != 0
		r.Observation.PolicyFetched = flags&flagPolicyFetched != 0
		r.Observation.LivenessSeen = flags&flagLivenessSeen != 0
		r.FailStage = d.str()
		r.Err = d.str()
		r.IDs = d.strs(&ids, "IDs")
		r.Username = d.str()
		r.Attempts = int(d.varint())
		r.FailReason = d.str()
		// Patterns and classes are counted plus one; zero means nil.
		if m := d.uvarint(); m > 0 {
			r.Observation.Patterns = take(d, &patterns, m-1, "patterns")
			for j := range r.Observation.Patterns {
				r.Observation.Patterns[j] = d.str()
			}
		}
		if m := d.uvarint(); m > 0 {
			r.Observation.Classes = take(d, &classes, m-1, "classes")
			for j := range r.Observation.Classes {
				r.Observation.Classes[j] = core.BehaviorClass(d.str())
			}
		}
	}
	drained(d, ids, "IDs")
	drained(d, patterns, "patterns")
	drained(d, classes, "classes")
}
