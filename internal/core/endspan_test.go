package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"spfail/internal/clock"
	"spfail/internal/trace"
)

// TestOutcomeEndSpan pins the probe root's end-of-probe attributes, which
// campaign and scan traces share: every failure field that is set, in the
// campaign's order.
func TestOutcomeEndSpan(t *testing.T) {
	var out bytes.Buffer
	tr := trace.New(&out, trace.Options{Seed: 1})
	sim := clock.NewSim(time.Date(2021, 10, 11, 0, 0, 0, 0, time.UTC))
	buf := tr.ProbeBuffer(sim, "s01", 7)
	o := Outcome{
		Status:     StatusInconclusive,
		Attempts:   2,
		FailStage:  "hello",
		FailReason: "attempts exhausted",
		Err:        errors.New("banner timeout"),
	}
	o.EndSpan(buf.Root("probe"))
	tr.FlushBuffer(buf)

	line := out.String()
	want := []string{
		`"status":"inconclusive"`, `"method":""`, `"attempts":"2"`, `"vulnerable":"false"`,
		`"fail_reason":"attempts exhausted"`, `"fail_stage":"hello"`, `"error":"banner timeout"`,
	}
	at := 0
	for _, kv := range want {
		i := strings.Index(line[at:], kv)
		if i < 0 {
			t.Fatalf("root span lacks %s after byte %d: %s", kv, at, line)
		}
		at += i + len(kv)
	}
	recs, err := trace.ReadAll(strings.NewReader(line))
	if err != nil || len(recs) != 1 || recs[0].End.IsZero() {
		t.Fatalf("want one ended root span, got %+v (err %v)", recs, err)
	}
}
