package study

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"spfail/internal/checkpoint"
	"spfail/internal/clock"
	"spfail/internal/measure"
	"spfail/internal/obs"
)

// runner threads the study's per-run state — rig, campaign, checkpoint
// store — through the stage machinery. Everything except capture is
// touched only from the goroutine that called Run, which drives the study
// and is the one sleeper on the shared simulated clock clk.
type runner struct {
	cfg       Config
	res       *Results
	rig       *measure.Rig
	campaign  *measure.Campaign
	clk       clock.Clock
	trackerIP string
	progress  func(string)
	cancel    context.CancelCauseFunc
	// coll sharpens per-stage peak-RSS attribution with the collector's
	// polled high-water mark.
	coll *obs.Collector

	// store is nil when checkpointing is disabled; pending is the tail
	// of committed segments a resume has not consumed yet.
	store   *checkpoint.Store
	pending []checkpoint.SegmentMeta
	// capture tees the tracer's output between stage cuts; nil when
	// checkpointing or tracing is off.
	capture *captureBuffer
	// killed latches once the injected Kill hook fires; Run reports
	// ErrKilled in place of whatever error the unwinding produced.
	killed bool
}

// stage executes one checkpointable unit of the study. When a pending
// committed segment is next, the stage replays instead of executing:
// restore rebuilds its results from the segment, and the generic
// round-boundary state — probe-label counter, circuit breakers, fault
// counters, trace bytes, virtual clock — is put back exactly where the
// committed run left it. Otherwise exec runs the stage live, and (when
// checkpointing) its payload is committed before the study moves on.
//
// The exec callback fills the stage payload's stage-specific fields
// (Targets, Outcomes, Extra); the generic fields are captured here so no
// stage can forget one.
func (r *runner) stage(ctx context.Context, name string, exec, restore func(*checkpoint.Stage) error) error {
	if len(r.pending) > 0 {
		meta := r.pending[0]
		if meta.Name != name {
			return fmt.Errorf("study: %w: store's next segment is %q, this run expects %q (control-flow drift despite matching fingerprint)",
				checkpoint.ErrResumeImpossible, meta.Name, name)
		}
		r.pending = r.pending[1:]
		payload, err := r.store.Read(meta)
		if err != nil {
			return fmt.Errorf("study: %w", err)
		}
		st, err := checkpoint.DecodeStage(payload)
		if err != nil {
			return fmt.Errorf("study: %w", err)
		}
		if err := restore(st); err != nil {
			return err
		}
		r.restoreResources(name, st)
		r.campaign.ResumeRound(st.ProbeSeq, st.Breakers)
		r.rig.FaultEngine.Restore(st.Faults)
		// Replayed bytes go straight to the output stream, bypassing the
		// capture tee — they already live in this segment.
		r.cfg.Trace.WriteRaw(st.Trace)
		if d := st.Clock.Sub(r.clk.Now()); d > 0 {
			if err := r.clk.Sleep(ctx, d); err != nil {
				return err
			}
		}
		r.rig.Metrics.Counter("checkpoint.resume.segments").Inc()
		return nil
	}

	st := &checkpoint.Stage{}
	probe := obs.BeginStage(r.clk, r.coll)
	if err := exec(st); err != nil {
		return err
	}
	sr := probe.End(name)
	r.res.Resources = append(r.res.Resources, sr)
	if r.store == nil {
		return nil
	}
	// Resource rows are a side channel: committed alongside the
	// deterministic payload, never inside it.
	if b, err := json.Marshal(sr); err == nil {
		st.Resources = b
	}
	st.Clock = r.clk.Now()
	st.ProbeSeq = r.campaign.ProbeSeq()
	st.Breakers = r.campaign.BreakerSnapshot()
	st.Faults = r.rig.FaultEngine.Snapshot()
	if r.capture != nil {
		st.Trace = r.capture.cut()
	}
	payload, err := checkpoint.EncodeStage(st)
	if err != nil {
		return err
	}
	if _, err := r.store.Commit(name, len(st.Outcomes), payload); err != nil {
		return err
	}
	if r.kill("commit:" + name) {
		return ErrKilled
	}
	return nil
}

// restoreResources surfaces a replayed segment's resource row in the
// results, flagged as replayed: the costs are what the stage consumed
// when it originally executed, not in this process. Segments from builds
// predating resource accounting simply have no row.
func (r *runner) restoreResources(name string, st *checkpoint.Stage) {
	if len(st.Resources) == 0 {
		return
	}
	var sr obs.StageResources
	if err := json.Unmarshal(st.Resources, &sr); err != nil {
		return
	}
	sr.Stage = name
	sr.Replayed = true
	r.res.Resources = append(r.res.Resources, sr)
}

// progressf reports a coarse stage update, formatting only when a sink
// is installed — studies run with Progress nil far more often than not,
// and the fmt work showed up in profiles.
func (r *runner) progressf(format string, args ...any) {
	if r.progress == nil {
		return
	}
	if len(args) == 0 {
		r.progress(format)
		return
	}
	r.progress(fmt.Sprintf(format, args...))
}

// kill consults the injected crash hook at a named point. The first fire
// latches and cancels the run context so in-flight campaign work
// unwinds; Run maps whatever error surfaces to ErrKilled.
func (r *runner) kill(point string) bool {
	if r.killed {
		return true
	}
	if r.cfg.Kill == nil || !r.cfg.Kill(point) {
		return false
	}
	r.killed = true
	r.cancel(ErrKilled)
	return true
}

// captureBuffer is the tracer's tee target while checkpointing: every
// record FlushBuffer emits is appended here, and each stage commit cuts
// the accumulated bytes into its segment, so a resumed run can replay
// the trace stream byte-for-byte. The tracer writes from whichever
// goroutine flushes a probe buffer, hence the lock.
type captureBuffer struct {
	mu  sync.Mutex
	buf []byte // guarded by mu
}

// Write implements io.Writer; it never fails.
func (b *captureBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	b.buf = append(b.buf, p...)
	b.mu.Unlock()
	return len(p), nil
}

// cut returns the bytes accumulated since the previous cut.
func (b *captureBuffer) cut() []byte {
	b.mu.Lock()
	out := b.buf
	b.buf = nil
	b.mu.Unlock()
	return out
}

// targetRows converts resolved targets to their serialized segment form.
func targetRows(ts []measure.Target) []checkpoint.TargetRow {
	rows := make([]checkpoint.TargetRow, len(ts))
	for i, t := range ts {
		row := checkpoint.TargetRow{Domain: t.Domain, HasMX: t.HasMX}
		for _, a := range t.Addrs {
			row.Addrs = append(row.Addrs, a.String())
		}
		rows[i] = row
	}
	return rows
}

// restoreTargets is the inverse of targetRows.
func restoreTargets(rows []checkpoint.TargetRow) ([]measure.Target, error) {
	ts := make([]measure.Target, len(rows))
	for i, row := range rows {
		addrs, err := row.TargetAddrs()
		if err != nil {
			return nil, fmt.Errorf("study: %w", err)
		}
		ts[i] = measure.Target{Domain: row.Domain, Addrs: addrs, HasMX: row.HasMX}
	}
	return ts, nil
}

// decodeExtra parses a stage's Extra payload, mapping failures to the
// resume-impossible class.
func decodeExtra(extra []byte, v any) error {
	if err := json.Unmarshal(extra, v); err != nil {
		return fmt.Errorf("study: %w: stage extra payload: %v", checkpoint.ErrResumeImpossible, err)
	}
	return nil
}
