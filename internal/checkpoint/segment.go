package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/netip"
	"time"

	"spfail/internal/core"
	"spfail/internal/faults"
	"spfail/internal/retry"
)

// Stage is one segment's payload: everything the study needs to fast-
// forward past a completed stage and leave the campaign's mutable state
// exactly where an uninterrupted run would have it. Aggregated results
// (vulnerable sets, analysis, report tables) are deliberately absent —
// the resumed run recomputes them from these rows, so aggregation bugs
// cannot be frozen into checkpoints.
type Stage struct {
	// Clock is the virtual-clock position when the stage finished; resume
	// sleeps the simulated clock forward to it.
	Clock time.Time
	// ProbeSeq is the campaign's probe-label counter after the stage
	// (label generation consumes one slot per probed address).
	ProbeSeq uint64
	// Breakers is the campaign's circuit-breaker state after the stage.
	Breakers []retry.BreakerSnapshot
	// Faults is the fault engine's per-(rule, host) event counters after
	// the stage; later rounds hash these to draw injection decisions.
	Faults []faults.SeqEntry
	// Targets is the stage's DNS resolution result, when it resolved.
	Targets []TargetRow
	// Outcomes is the stage's probe results, when it probed.
	Outcomes []OutcomeRow
	// Extra carries stage-specific results (spoof verdicts, the
	// notification record) the generic fields cannot.
	Extra json.RawMessage
	// Trace is the raw trace-stream bytes the stage emitted, replayed
	// verbatim on resume so the trace file stays byte-identical.
	Trace []byte
	// Resources is the stage's resource accounting (obs.StageResources),
	// kept as an opaque side channel: it records what the stage cost when
	// it actually executed, is restored verbatim on resume, and never
	// feeds any seeded output byte.
	Resources json.RawMessage
}

// TargetRow is the serialized form of one resolved measurement target.
// It mirrors measure.Target without importing measure (which sits above
// this package in the dependency order).
type TargetRow struct {
	Domain string
	Addrs  []string
	HasMX  bool
}

// TargetAddrs parses a row's addresses back to netip form.
func (t TargetRow) TargetAddrs() ([]netip.Addr, error) {
	if len(t.Addrs) == 0 {
		return nil, nil
	}
	out := make([]netip.Addr, 0, len(t.Addrs))
	for _, s := range t.Addrs {
		a, err := netip.ParseAddr(s)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: %w: target %s address %q: %v", ErrResumeImpossible, t.Domain, s, err)
		}
		out = append(out, a)
	}
	return out, nil
}

// OutcomeRow is the serialized form of one probe outcome. core.Outcome
// carries an error value, which a segment cannot hold, so the row stores
// its message and restores a plain error; nothing downstream of the
// campaign inspects the error beyond its text.
type OutcomeRow struct {
	Addr        string
	Status      core.Status
	Method      core.ProbeMethod
	NoMsgRan    bool
	BlankMsgRan bool
	Observation core.Observation
	FailStage   string
	Err         string
	IDs         []string
	Username    string
	Attempts    int
	FailReason  string
}

// NewOutcomeRow converts one campaign outcome to its serialized form.
func NewOutcomeRow(o *core.Outcome) OutcomeRow {
	r := OutcomeRow{
		Addr:        o.Addr,
		Status:      o.Status,
		Method:      o.Method,
		NoMsgRan:    o.NoMsgRan,
		BlankMsgRan: o.BlankMsgRan,
		Observation: o.Observation,
		FailStage:   o.FailStage,
		IDs:         o.IDs,
		Username:    o.Username,
		Attempts:    o.Attempts,
		FailReason:  o.FailReason,
	}
	if o.Err != nil {
		r.Err = o.Err.Error()
	}
	return r
}

// OutcomeRows converts campaign outcomes to their serialized form.
func OutcomeRows(outs []core.Outcome) []OutcomeRow {
	if len(outs) == 0 {
		return nil
	}
	rows := make([]OutcomeRow, len(outs))
	for i := range outs {
		rows[i] = NewOutcomeRow(&outs[i])
	}
	return rows
}

// RestoreOutcomes converts serialized rows back to campaign outcomes.
// Rows with the same error text share one error value.
func RestoreOutcomes(rows []OutcomeRow) []core.Outcome {
	if len(rows) == 0 {
		return nil
	}
	outs := make([]core.Outcome, len(rows))
	var errs sharedErrors
	for i := range rows {
		outs[i] = rows[i].outcome(&errs)
	}
	return outs
}

// RestoreOutcomesInto restores rows into an outcome map keyed by probed
// address, the form a campaign delivers them in. A row's Addr is the
// probe's dial string ("ip:25"), so the port is stripped to recover the
// key. Rows with the same error text share one error value.
func RestoreOutcomesInto(rows []OutcomeRow, into map[netip.Addr]core.Outcome) error {
	var errs sharedErrors
	for i := range rows {
		r := &rows[i]
		var a netip.Addr
		if ap, err := netip.ParseAddrPort(r.Addr); err == nil {
			a = ap.Addr()
		} else if a, err = netip.ParseAddr(r.Addr); err != nil {
			return fmt.Errorf("checkpoint: %w: outcome address %q: %v", ErrResumeImpossible, r.Addr, err)
		}
		into[a] = r.outcome(&errs)
	}
	return nil
}

func (r *OutcomeRow) outcome(errs *sharedErrors) core.Outcome {
	return core.Outcome{
		Addr:        r.Addr,
		Status:      r.Status,
		Method:      r.Method,
		NoMsgRan:    r.NoMsgRan,
		BlankMsgRan: r.BlankMsgRan,
		Observation: r.Observation,
		FailStage:   r.FailStage,
		Err:         errs.get(r.Err),
		IDs:         r.IDs,
		Username:    r.Username,
		Attempts:    r.Attempts,
		FailReason:  r.FailReason,
	}
}

// sharedErrors hands out one error value per distinct text.
type sharedErrors map[string]error

func (m *sharedErrors) get(text string) error {
	if text == "" {
		return nil
	}
	if err, ok := (*m)[text]; ok {
		return err
	}
	if *m == nil {
		*m = make(sharedErrors)
	}
	err := errors.New(text)
	(*m)[text] = err
	return err
}
