package checkpoint

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"spfail/internal/core"
	"spfail/internal/faults"
	"spfail/internal/retry"
	"spfail/internal/telemetry"
)

// goldenStage is a fixed fully-populated payload; the encoding tests pin
// its byte form so accidental format drift (a reordered field, a changed
// tag) fails loudly instead of silently invalidating old stores. Its rows
// define table entries, refer back to them, write an address-bearing
// error inline, and keep nil patterns apart from empty ones.
func goldenStage(t testing.TB) *Stage {
	t.Helper()
	return &Stage{
		Clock:    time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC),
		ProbeSeq: 42,
		Breakers: []retry.BreakerSnapshot{
			{Key: "203.0.113.5", State: retry.BreakerOpen, Failures: 3,
				OpenUntil: time.Date(2022, 3, 1, 0, 30, 0, 0, time.UTC)},
		},
		Faults: []faults.SeqEntry{{Key: "dns-timeout|0|mx1.example.org", Seq: 7}},
		Targets: []TargetRow{
			{Domain: "example.org", Addrs: []string{"203.0.113.5", "2001:db8::5"}, HasMX: true},
			{Domain: "no-mx.example", Addrs: []string{"203.0.113.9"}},
		},
		Outcomes: []OutcomeRow{
			{Addr: "203.0.113.5:25", Status: core.StatusSPFMeasured, Method: core.MethodNoMsg,
				NoMsgRan: true, Observation: core.Observation{PolicyFetched: true, LivenessSeen: true},
				IDs: []string{"k7f2q"}, Username: "mmj7yzdm0tbk", Attempts: 1},
			{Addr: "203.0.113.9:25", Status: core.StatusSMTPFailure, FailStage: core.StageHello,
				Err: "rig: banner timeout", Attempts: 2, FailReason: "attempts exhausted"},
			{Addr: "[2001:db8::5]:25", Status: core.StatusSPFMeasured, Method: core.MethodBlankMsg,
				NoMsgRan: true, BlankMsgRan: true,
				Observation: core.Observation{PolicyFetched: true, LivenessSeen: true,
					Patterns: []string{"%{d1r}", "org"},
					Classes:  []core.BehaviorClass{core.ClassNoExpansion, core.ClassVulnerable}},
				IDs: []string{"a1", "b2"}, Username: "mmj7yzdm0tbk", Attempts: 1},
			{Addr: "203.0.113.7:25", Status: core.StatusConnectionRefused, FailStage: core.StageDial,
				Err: "dial tcp 203.0.113.7:25: connection refused", Attempts: 1,
				Observation: core.Observation{Patterns: []string{}, Classes: []core.BehaviorClass{}}},
			{Addr: "203.0.113.8:25", Status: core.StatusSMTPFailure, FailStage: core.StageHello,
				Err: "rig: banner timeout", Attempts: 2, FailReason: "attempts exhausted"},
		},
		Extra:     []byte(`{"note":"spoof"}`),
		Trace:     []byte(`{"probe":"k7f2q"}` + "\n"),
		Resources: []byte(`{"stage":"round-000"}`),
	}
}

// goldenStageHex is goldenStage as this build encodes it.
const goldenStageHex = "" +
	"53504653454702107b226e6f7465223a2273706f6f66227d127b2270726f6265" +
	"223a226b37663271227d0a157b227374616765223a22726f756e642d30303022" +
	"7d8088eba10c002a012d3230332e302e3131332e35136f70656e0690a4eba10c" +
	"000175646e732d74696d656f75747c307c6d78312e6578616d706c652e6f7267" +
	"0702032d6578616d706c652e6f7267022d3230332e302e3131332e352d323030" +
	"313a6462383a3a3501356e6f2d6d782e6578616d706c65012d3230332e302e31" +
	"31332e390005030202393230332e302e3131332e353a3235337370662d6d6561" +
	"7375726564174e6f4d73670d000001156b37663271336d6d6a37797a646d3074" +
	"626b02000000393230332e302e3131332e393a323533736d74702d6661696c75" +
	"726500001768656c6c6f4f7269673a2062616e6e65722074696d656f75740000" +
	"044b617474656d707473206578686175737465640000415b323030313a646238" +
	"3a3a355d3a32350423426c616e6b4d73670f0000020961310962320802000319" +
	"257b6431727d0d6f726703336e6f2d657870616e73696f6e4b76756c6e657261" +
	"626c652d6c696273706632393230332e302e3131332e373a32354b636f6e6e65" +
	"6374696f6e2d726566757365640000136469616cad016469616c207463702032" +
	"30332e302e3131332e373a32353a20636f6e6e656374696f6e20726566757365" +
	"64000002000101393230332e302e3131332e383a32350a00000c0e0000041000" +
	"00"

func goldenPayload(t testing.TB) []byte {
	t.Helper()
	b, err := hex.DecodeString(goldenStageHex)
	if err != nil {
		t.Fatalf("golden hex: %v", err)
	}
	return b
}

func TestStageEncodingGolden(t *testing.T) {
	b, err := EncodeStage(goldenStage(t))
	if err != nil {
		t.Fatalf("EncodeStage: %v", err)
	}
	if want := goldenPayload(t); !bytes.Equal(b, want) {
		t.Errorf("stage encoding drifted:\n got %x\nwant %x", b, want)
	}
	st, err := DecodeStage(b)
	if err != nil {
		t.Fatalf("DecodeStage: %v", err)
	}
	if want := goldenStage(t); !reflect.DeepEqual(st, want) {
		t.Errorf("round trip lost a field:\n got %+v\nwant %+v", st, want)
	}
	round, err := EncodeStage(st)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(round, b) {
		t.Errorf("encode/decode/encode not stable:\n got %x\nwant %x", round, b)
	}
}

// seg assembles a payload by hand for the malformed-payload cases.
type seg struct{ encoder }

func newSeg() *seg {
	s := &seg{encoder{table: make(map[string]uint64)}}
	s.b = append(s.b, segmentMagic...)
	s.b = append(s.b, manifestVersion)
	return s
}

// upToProbeSeq writes empty raw fields, a zero clock and probe sequence.
func (s *seg) upToProbeSeq() *seg {
	s.blob(nil)
	s.blob(nil)
	s.blob(nil)
	s.time(time.Unix(0, 0))
	s.uvarint(0)
	return s
}

// upToTargets also writes empty breaker and fault sections.
func (s *seg) upToTargets() *seg {
	s.upToProbeSeq()
	s.uvarint(0)
	s.uvarint(0)
	return s
}

// upToOutcomes also writes an empty target section.
func (s *seg) upToOutcomes() *seg {
	s.upToTargets()
	s.uvarint(0)
	s.uvarint(0)
	return s
}

// row writes one outcome row with the given flags, no IDs and the rest
// empty.
func (s *seg) row(flags byte) *seg {
	s.lit("192.0.2.1:25")
	s.ref(string(core.StatusSMTPFailure))
	s.ref("")
	s.b = append(s.b, flags)
	s.ref("")
	s.ref("")
	s.uvarint(0)
	s.ref("")
	s.varint(1)
	s.ref("")
	s.uvarint(0)
	s.uvarint(0)
	return s
}

func (s *seg) raw(b ...byte) *seg {
	s.b = append(s.b, b...)
	return s
}

func TestDecodeStageRejectsMalformed(t *testing.T) {
	golden := goldenPayload(t)
	oldVersion := append([]byte(nil), golden...)
	oldVersion[len(segmentMagic)] = 1

	nanos := newSeg()
	nanos.blob(nil)
	nanos.blob(nil)
	nanos.blob(nil)
	nanos.varint(0)
	nanos.uvarint(1e9)

	tableIndex := newSeg().upToProbeSeq()
	tableIndex.uvarint(1)
	tableIndex.lit("192.0.2.1")
	tableIndex.uvarint(1 << 1) // entry 1, none defined yet

	hasMX := newSeg().upToTargets().raw(1, 0)
	hasMX.lit("example.org")
	hasMX.raw(0, 2)

	moreIDs := newSeg().upToOutcomes().raw(1, 1, 0, 0)
	moreIDs.lit("192.0.2.1:25")
	moreIDs.raw(0, 0, 0, 0, 0)
	moreIDs.lits([]string{"a", "b"})

	pastEnd := newSeg().upToTargets().raw(1, 0)
	pastEnd.uvarint(20<<2 | 1)
	pastEnd.raw('x', 'y')

	cases := []struct {
		name    string
		payload []byte
		want    string // in the error text
	}{
		{"empty", nil, "no segment header"},
		{"wrong magic", append([]byte("SPFSEX"), golden[len(segmentMagic):]...), "no segment header"},
		{"JSON-era segment", []byte(`{"clock":"2022-03-01T00:00:00Z","mystery":1}`), "no segment header"},
		{"older version", oldVersion, "segment format version 1, this build reads 2"},
		{"trailing bytes", append(append([]byte(nil), golden...), 0), "1 trailing bytes"},
		{"raw field past the payload", newSeg().raw(0x7f).b, "extra length runs past the payload"},
		{"nanoseconds of 1e9", nanos.b, "nanoseconds 1000000000 out of range"},
		{"varint past 64 bits", newSeg().upToProbeSeq().raw(0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02).b, "varint overflows"},
		{"breaker count past the bytes left", newSeg().upToProbeSeq().raw(0x80, 0x80, 0x80, 0x80, 0x80, 0x01).b, "breaker count 34359738368 exceeds"},
		{"fault count past the bytes left", newSeg().upToProbeSeq().raw(0, 0x03, 0, 0, 0, 0, 0).b, "fault counter count 3 exceeds"},
		{"target count past the bytes left", newSeg().upToTargets().raw(0x80, 0x80, 0x80, 0x80, 0x01, 0).b, "target count 268435456 exceeds"},
		{"address total past the bytes left", newSeg().upToTargets().raw(0, 0xff, 0xff, 0xff, 0xff, 0x0f).b, "target address count"},
		{"outcome count past the bytes left", newSeg().upToOutcomes().raw(0x80, 0x80, 0x04, 0, 0, 0).b, "outcome count 65536 exceeds"},
		{"ID total past the bytes left", newSeg().upToOutcomes().raw(0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f).b, "ID count"},
		{"table index out of range", tableIndex.b, "table index 1 past the 0 entries"},
		{"unknown outcome flag", newSeg().upToOutcomes().raw(1, 0, 0, 0).row(0x10).b, "unknown outcome flags 0x10"},
		{"has-MX byte", hasMX.b, "has-MX byte"},
		{"more IDs than declared", moreIDs.b, "more IDs than the section's declared total"},
		{"fewer IDs than declared", newSeg().upToOutcomes().raw(0, 1, 0, 0).b, "1 fewer IDs"},
		{"string past the payload", pastEnd.b, "string of 20 bytes runs past the payload"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st, err := DecodeStage(c.payload)
			if !errors.Is(err, ErrResumeImpossible) {
				t.Fatalf("got %+v, %v; want ErrResumeImpossible", st, err)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not say %q", err, c.want)
			}
		})
	}

	t.Run("truncation at every offset", func(t *testing.T) {
		for n := range golden {
			if _, err := DecodeStage(golden[:n]); !errors.Is(err, ErrResumeImpossible) {
				t.Errorf("payload cut to %d of %d bytes: got %v, want ErrResumeImpossible", n, len(golden), err)
			}
		}
	})
}

// TestDecodeStageAllocatesWithinPayload hands the decoder counts far
// beyond what the payload can hold: it must reject each before it
// allocates for it.
func TestDecodeStageAllocatesWithinPayload(t *testing.T) {
	many := []byte{0x80, 0x80, 0x04} // 65,536
	for _, c := range []struct {
		what    string
		payload []byte
	}{
		{"breakers", newSeg().upToProbeSeq().raw(many...).b},
		{"targets", newSeg().upToTargets().raw(many...).raw(0).b},
		{"addresses", newSeg().upToTargets().raw(0).raw(many...).b},
		{"outcomes", newSeg().upToOutcomes().raw(many...).raw(0, 0, 0).b},
		{"IDs", newSeg().upToOutcomes().raw(0).raw(many...).raw(0, 0).b},
		{"patterns", newSeg().upToOutcomes().raw(0, 0).raw(many...).raw(0).b},
		{"classes", newSeg().upToOutcomes().raw(0, 0, 0).raw(many...).b},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeStage(c.payload)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrResumeImpossible) {
			t.Errorf("65,536 %s: got %v, want ErrResumeImpossible", c.what, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 4096 {
			t.Errorf("65,536 %s in %d bytes: decoder allocated %d bytes", c.what, len(c.payload), got)
		}
	}
}

func TestOpenRejectsOlderFormat(t *testing.T) {
	dir := t.TempDir()
	// A store as version 1 wrote it: JSON segments under a version-1
	// manifest.
	segment := []byte(`{"clock":"2022-03-01T00:00:00Z","probe_seq":42}`)
	file := "0000-resolve.seg"
	if err := os.MkdirAll(filepath.Join(dir, segmentsDir), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segmentsDir, file), segment, 0o644); err != nil {
		t.Fatal(err)
	}
	manifest := fmt.Sprintf(`{"version": 1, "fingerprint": "fp", "segments": [`+
		`{"seq": 0, "name": "resolve", "file": %q, "size": %d, "checksum_fnv64a": "%016x"}]}`,
		file, len(segment), checksum(segment))
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, "fp", telemetry.New())
	if !errors.Is(err, ErrResumeImpossible) {
		t.Fatalf("version-1 store: got %v, want ErrResumeImpossible", err)
	}
	if !strings.Contains(err.Error(), "version 1") || !strings.Contains(err.Error(), "writes 2") {
		t.Errorf("error should name both versions: %v", err)
	}
}

// roundStage is shaped like a longitudinal round's segment: n rows, most
// of them failures at a 421 banner with two IDs each, every tenth a
// measured row with a pattern and every fiftieth a refused dial.
func roundStage(n int) *Stage {
	st := &Stage{
		Clock:     time.Date(2021, 11, 2, 0, 0, 0, 0, time.UTC),
		ProbeSeq:  uint64(2 * n),
		Resources: []byte(`{"stage":"round-003","wall_ns":7461612,"alloc_bytes":3466352}`),
		Outcomes:  make([]OutcomeRow, n),
	}
	for i := range st.Outcomes {
		addr := netip.AddrFrom4([4]byte{100, 64, byte(i >> 8), byte(i)}).String() + ":25"
		id := fmt.Sprintf("%08x", 2*i)
		switch {
		case i%10 == 0:
			st.Outcomes[i] = OutcomeRow{Addr: addr, Status: core.StatusSPFMeasured, Method: core.MethodNoMsg, NoMsgRan: true,
				Observation: core.Observation{PolicyFetched: true, LivenessSeen: true,
					Patterns: []string{id[:6]}, Classes: []core.BehaviorClass{core.ClassVulnerable}},
				IDs: []string{id}, Username: "mmj7yzdm0tbk", Attempts: 1}
		case i%50 == 7:
			st.Outcomes[i] = OutcomeRow{Addr: addr, Status: core.StatusConnectionRefused, FailStage: core.StageDial,
				Err: "dial tcp " + addr + ": connection refused", IDs: []string{id}, Attempts: 1}
		default:
			st.Outcomes[i] = OutcomeRow{Addr: addr, Status: core.StatusSMTPFailure, NoMsgRan: true, FailStage: core.StageBanner,
				Err:      "smtp: server replied 421 Service not available, closing transmission channel",
				IDs:      []string{id, fmt.Sprintf("%08x", 2*i+1)},
				Attempts: 1}
		}
	}
	return st
}

// FuzzDecodeStage feeds the decoder arbitrary segment payloads. It must
// never panic, and whatever it accepts must re-encode to a payload that
// decodes to an equal stage and encodes to the same bytes again.
func FuzzDecodeStage(f *testing.F) {
	for _, st := range []*Stage{goldenStage(f), roundStage(500), {}} {
		b, err := EncodeStage(st)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"clock":"2022-03-01T00:00:00Z"}`))
	f.Fuzz(func(t *testing.T, payload []byte) {
		st, err := DecodeStage(payload)
		if err != nil {
			if !errors.Is(err, ErrResumeImpossible) {
				t.Fatalf("rejection does not wrap ErrResumeImpossible: %v", err)
			}
			return
		}
		b, err := EncodeStage(st)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, err := DecodeStage(b)
		if err != nil {
			t.Fatalf("re-encoded payload rejected: %v", err)
		}
		if !reflect.DeepEqual(st, again) {
			t.Fatalf("re-encoded payload decodes differently:\n got %+v\nwant %+v", again, st)
		}
		if b2, _ := EncodeStage(again); !bytes.Equal(b, b2) {
			t.Fatalf("encoding not stable:\n got %x\nwant %x", b2, b)
		}
	})
}

var codecSink *Stage

// BenchmarkStageCodec encodes and decodes one round-sized segment per
// op: its allocs/op is the codec's whole per-round allocation count.
func BenchmarkStageCodec(b *testing.B) {
	st := roundStage(500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload, err := EncodeStage(st)
		if err != nil {
			b.Fatal(err)
		}
		if codecSink, err = DecodeStage(payload); err != nil {
			b.Fatal(err)
		}
	}
}
