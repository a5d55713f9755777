package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"
)

// appendRecord renders one span as a single JSON line. The encoder is
// hand-rolled (append-style, quoted via strconv) so flushing a trace does
// not depend on encoding/json field ordering and reuses the tracer's
// scratch buffer across spans.
func appendRecord(dst []byte, traceID string, sp *Span) []byte {
	dst = append(dst, `{"trace":`...)
	dst = strconv.AppendQuote(dst, traceID)
	dst = append(dst, `,"span":`...)
	dst = strconv.AppendUint(dst, uint64(sp.id), 10)
	if sp.parent != 0 {
		dst = append(dst, `,"parent":`...)
		dst = strconv.AppendUint(dst, uint64(sp.parent), 10)
	}
	dst = append(dst, `,"name":`...)
	dst = strconv.AppendQuote(dst, sp.name)
	dst = append(dst, `,"start":`...)
	dst = appendTime(dst, sp.start)
	dst = append(dst, `,"end":`...)
	//spfail:allow lockguard span is frozen: FlushBuffer set closed under b.mu, so every later writer no-ops
	dst = appendTime(dst, sp.end)
	//spfail:allow lockguard span is frozen once the buffer is closed (see end above)
	if len(sp.attrs) > 0 {
		dst = append(dst, `,"attrs":{`...)
		//spfail:allow lockguard span is frozen once the buffer is closed (see end above)
		for i, a := range sp.attrs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendQuote(dst, a.Key)
			dst = append(dst, ':')
			dst = strconv.AppendQuote(dst, a.Value)
		}
		dst = append(dst, '}')
	}
	dst = append(dst, "}\n"...)
	return dst
}

func appendTime(dst []byte, t time.Time) []byte {
	dst = append(dst, '"')
	dst = t.UTC().AppendFormat(dst, time.RFC3339Nano)
	dst = append(dst, '"')
	return dst
}

// Record is the decoded form of one JSONL trace line, shared by
// cmd/spfail-trace and the determinism tests.
type Record struct {
	Trace  string            `json:"trace"`
	Span   uint32            `json:"span"`
	Parent uint32            `json:"parent,omitempty"`
	Name   string            `json:"name"`
	Start  time.Time         `json:"start"`
	End    time.Time         `json:"end"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// ReadAll decodes every record of a JSONL trace stream, skipping blank
// lines and reporting the line number of the first malformed record.
func ReadAll(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	var out []Record
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	return out, nil
}
