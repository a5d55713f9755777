package checkpoint

import (
	"errors"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spfail/internal/core"
	"spfail/internal/telemetry"
)

func TestOutcomeRowRoundTrip(t *testing.T) {
	in := []core.Outcome{
		{Addr: "203.0.113.5", Status: core.StatusSPFMeasured, Method: core.MethodBlankMsg,
			NoMsgRan: true, BlankMsgRan: true,
			Observation: core.Observation{PolicyFetched: true, Patterns: []string{"p"}, Classes: []core.BehaviorClass{core.ClassVulnerable}},
			IDs:         []string{"a", "b"}, Username: "abuse", Attempts: 2},
		{Addr: "203.0.113.9", Status: core.StatusConnectionRefused, FailStage: core.StageDial,
			Err: errors.New("connection refused"), Attempts: 1},
		{Addr: "203.0.113.10", Status: core.StatusConnectionRefused, FailStage: core.StageDial,
			Err: errors.New("connection refused"), Attempts: 1},
	}
	out := RestoreOutcomes(OutcomeRows(in))
	if len(out) != len(in) {
		t.Fatalf("round trip length: got %d, want %d", len(out), len(in))
	}
	for i := range in {
		got, want := out[i], in[i]
		if got.Addr != want.Addr || got.Status != want.Status || got.Method != want.Method ||
			got.NoMsgRan != want.NoMsgRan || got.BlankMsgRan != want.BlankMsgRan ||
			got.FailStage != want.FailStage || got.Username != want.Username ||
			got.Attempts != want.Attempts || got.FailReason != want.FailReason {
			t.Errorf("outcome %d mismatch: got %+v, want %+v", i, got, want)
		}
		switch {
		case want.Err == nil && got.Err != nil:
			t.Errorf("outcome %d: restored error %v, want nil", i, got.Err)
		case want.Err != nil && (got.Err == nil || got.Err.Error() != want.Err.Error()):
			t.Errorf("outcome %d: restored error %v, want %v", i, got.Err, want.Err)
		}
	}
	if out[1].Err != out[2].Err {
		t.Errorf("rows with one error text restored two error values")
	}
}

func TestRestoreOutcomesInto(t *testing.T) {
	rows := OutcomeRows([]core.Outcome{
		{Addr: "203.0.113.5:25", Status: core.StatusSPFMeasured, IDs: []string{"a"}},
		{Addr: "[2001:db8::5]:25", Status: core.StatusSMTPFailure, Err: errors.New("421")},
		{Addr: "203.0.113.9", Status: core.StatusSMTPFailure, Err: errors.New("421")},
	})
	into := make(map[netip.Addr]core.Outcome)
	if err := RestoreOutcomesInto(rows, into); err != nil {
		t.Fatalf("RestoreOutcomesInto: %v", err)
	}
	for _, key := range []string{"203.0.113.5", "2001:db8::5", "203.0.113.9"} {
		if _, ok := into[netip.MustParseAddr(key)]; !ok {
			t.Errorf("no outcome under %s: %v", key, into)
		}
	}
	if a, b := into[netip.MustParseAddr("2001:db8::5")].Err, into[netip.MustParseAddr("203.0.113.9")].Err; a == nil || a != b {
		t.Errorf("rows with one error text restored errors %v and %v, want one shared value", a, b)
	}
	bad := []OutcomeRow{{Addr: "mx.example:25"}}
	if err := RestoreOutcomesInto(bad, into); !errors.Is(err, ErrResumeImpossible) {
		t.Errorf("unparsable address: got %v, want ErrResumeImpossible", err)
	}
}

func TestTargetRowAddrs(t *testing.T) {
	row := TargetRow{Domain: "example.org", Addrs: []string{"203.0.113.5", "2001:db8::5"}}
	addrs, err := row.TargetAddrs()
	if err != nil {
		t.Fatalf("TargetAddrs: %v", err)
	}
	if len(addrs) != 2 || addrs[0].String() != "203.0.113.5" || addrs[1].String() != "2001:db8::5" {
		t.Errorf("parsed addrs: %v", addrs)
	}
	if _, err := (TargetRow{Domain: "d", Addrs: []string{"not-an-ip"}}).TargetAddrs(); !errors.Is(err, ErrResumeImpossible) {
		t.Errorf("bad addr: got %v, want ErrResumeImpossible", err)
	}
}

func TestStoreCommitAndReopen(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.New()
	s, err := Create(dir, "fp-1", reg)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	m1, err := s.Commit("resolve", 0, []byte("targets"))
	if err != nil {
		t.Fatalf("Commit resolve: %v", err)
	}
	m2, err := s.Commit("round-000", 12, []byte("outcomes"))
	if err != nil {
		t.Fatalf("Commit round: %v", err)
	}
	if m1.Seq != 0 || m1.File != "0000-resolve.seg" || m2.Seq != 1 || m2.File != "0001-round-000.seg" {
		t.Errorf("segment metas: %+v, %+v", m1, m2)
	}
	if got := reg.Counter("checkpoint.store.commits").Value(); got != 2 {
		t.Errorf("checkpoint.store.commits = %d, want 2", got)
	}
	if got := reg.Counter("checkpoint.store.bytes").Value(); got != int64(len("targets")+len("outcomes")) {
		t.Errorf("checkpoint.store.bytes = %d", got)
	}

	re, err := Open(dir, "fp-1", telemetry.New())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	segs := re.Segments()
	if len(segs) != 2 || segs[0].Name != "resolve" || segs[1].Name != "round-000" {
		t.Fatalf("reopened segments: %+v", segs)
	}
	b, err := re.Read(segs[1])
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if string(b) != "outcomes" {
		t.Errorf("payload: %q", b)
	}
}

func TestCreateClearsStaleStore(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, "fp-1", telemetry.New())
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := s.Commit("resolve", 0, []byte("old")); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	s2, err := Create(dir, "fp-2", telemetry.New())
	if err != nil {
		t.Fatalf("re-Create: %v", err)
	}
	if n := len(s2.Segments()); n != 0 {
		t.Errorf("fresh store has %d segments", n)
	}
	entries, err := os.ReadDir(filepath.Join(dir, segmentsDir))
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(entries) != 0 {
		t.Errorf("stale segment files survived: %v", entries)
	}
}

func TestOpenFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	if _, err := Create(dir, "fp-1", telemetry.New()); err != nil {
		t.Fatalf("Create: %v", err)
	}
	_, err := Open(dir, "fp-2", telemetry.New())
	if !errors.Is(err, ErrResumeImpossible) {
		t.Fatalf("fingerprint mismatch: got %v, want ErrResumeImpossible", err)
	}
	if !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("error should name the fingerprint: %v", err)
	}
}

func TestOpenMissingManifest(t *testing.T) {
	_, err := Open(t.TempDir(), "fp", telemetry.New())
	if !errors.Is(err, ErrResumeImpossible) {
		t.Fatalf("missing manifest: got %v, want ErrResumeImpossible", err)
	}
}

// corruptStore builds a two-segment store and returns its directory and
// the second segment's path for the corruption tests to mangle.
func corruptStore(t *testing.T) (string, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := Create(dir, "fp", telemetry.New())
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := s.Commit("resolve", 0, []byte("targets-payload")); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	meta, err := s.Commit("round-000", 3, []byte("outcomes-payload"))
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	return dir, filepath.Join(dir, segmentsDir, meta.File)
}

func TestOpenTruncatedSegment(t *testing.T) {
	dir, seg := corruptStore(t)
	if err := os.Truncate(seg, 4); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	_, err := Open(dir, "fp", telemetry.New())
	if !errors.Is(err, ErrResumeImpossible) {
		t.Fatalf("truncated segment: got %v, want ErrResumeImpossible", err)
	}
	if !strings.Contains(err.Error(), "round-000") {
		t.Errorf("error should name the segment: %v", err)
	}
}

func TestOpenBitFlippedSegment(t *testing.T) {
	dir, seg := corruptStore(t)
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	b[len(b)/2] ^= 0x01
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	_, err = Open(dir, "fp", telemetry.New())
	if !errors.Is(err, ErrResumeImpossible) {
		t.Fatalf("bit flip: got %v, want ErrResumeImpossible", err)
	}
	if !strings.Contains(err.Error(), "checksum") {
		t.Errorf("error should name the checksum: %v", err)
	}
}

func TestOpenMissingSegment(t *testing.T) {
	dir, seg := corruptStore(t)
	if err := os.Remove(seg); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, err := Open(dir, "fp", telemetry.New()); !errors.Is(err, ErrResumeImpossible) {
		t.Fatalf("missing segment: got %v, want ErrResumeImpossible", err)
	}
}

func TestOpenMalformedManifest(t *testing.T) {
	dir, _ := corruptStore(t)
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("{nope"), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if _, err := Open(dir, "fp", telemetry.New()); !errors.Is(err, ErrResumeImpossible) {
		t.Fatalf("malformed manifest: got %v, want ErrResumeImpossible", err)
	}
}

func TestCommitRejectsBadNames(t *testing.T) {
	s, err := Create(t.TempDir(), "fp", telemetry.New())
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for _, name := range []string{"", "Round-1", "a/b", "a.b", "rø"} {
		if _, err := s.Commit(name, 0, nil); err == nil {
			t.Errorf("Commit(%q) succeeded, want error", name)
		}
	}
}

func TestGoldenManifestBytes(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, "0011223344556677", telemetry.New())
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := s.Commit("resolve", 0, []byte("hello")); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	got, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	want := `{
  "version": 2,
  "fingerprint": "0011223344556677",
  "segments": [
    {
      "seq": 0,
      "name": "resolve",
      "file": "0000-resolve.seg",
      "size": 5,
      "checksum_fnv64a": "a430d84680aabd0b"
    }
  ]
}
`
	if string(got) != want {
		t.Errorf("manifest bytes drifted:\n got %s\nwant %s", got, want)
	}
}

// TestReaderSnapshotIsolation drives a writer committing rounds while
// readers poll: every reader must see a prefix of the final segment list
// and be able to read every segment it sees, even as later commits land.
func TestReaderSnapshotIsolation(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.New()
	s, err := Create(dir, "fp", reg)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}

	const rounds = 40
	done := make(chan error, 1)
	go func() {
		for i := 0; i < rounds; i++ {
			name := "round-" + string([]byte{'0' + byte(i/10), '0' + byte(i%10)})
			payload := []byte(strings.Repeat("x", 100+i))
			if _, err := s.Commit(name, i, payload); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	var last int
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("writer: %v", err)
			}
			r, err := OpenReader(dir, reg)
			if err != nil {
				t.Fatalf("final OpenReader: %v", err)
			}
			if got := r.Progress(); got.Segments != rounds || got.Rounds != rounds {
				t.Fatalf("final progress: %+v, want %d segments", got, rounds)
			}
			return
		default:
		}
		r, err := OpenReader(dir, reg)
		if err != nil {
			t.Fatalf("OpenReader: %v", err)
		}
		segs := r.Segments()
		if len(segs) < last {
			t.Fatalf("snapshot went backwards: %d then %d segments", last, len(segs))
		}
		last = len(segs)
		for _, meta := range segs {
			b, err := r.Read(meta)
			if err != nil {
				t.Fatalf("reader saw committed segment %s but cannot read it: %v", meta.Name, err)
			}
			if int64(len(b)) != meta.Size {
				t.Fatalf("segment %s: %d bytes, meta says %d", meta.Name, len(b), meta.Size)
			}
		}
	}
}

func TestReaderProgressAndCounter(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, "fp", telemetry.New())
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for _, c := range []struct {
		name   string
		probes int
	}{{"resolve", 0}, {"initial", 100}, {"round-000", 7}, {"round-001", 5}} {
		if _, err := s.Commit(c.name, c.probes, []byte(c.name)); err != nil {
			t.Fatalf("Commit %s: %v", c.name, err)
		}
	}
	reg := telemetry.New()
	r, err := OpenReader(dir, reg)
	if err != nil {
		t.Fatalf("OpenReader: %v", err)
	}
	if got := r.Progress(); got.Segments != 4 || got.Rounds != 2 || got.Probes != 112 {
		t.Errorf("Progress = %+v, want {4 2 112}", got)
	}
	if got := reg.Counter("checkpoint.reader.opens").Value(); got != 1 {
		t.Errorf("checkpoint.reader.opens = %d, want 1", got)
	}
	if r.Fingerprint() != "fp" {
		t.Errorf("Fingerprint = %q", r.Fingerprint())
	}
}
