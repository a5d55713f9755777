package measure

import (
	"fmt"
	"time"

	"spfail/internal/retry"
	"spfail/internal/telemetry"
	"spfail/internal/trace"
)

// Config is the single validated configuration surface for measurement
// campaigns. It replaces the zero-value-defaulted field sprawl that used to
// live across Campaign, core.Prober, and the rig constructor's positional
// parameters:
// every knob — concurrency, politeness waits, retry policy, circuit
// breaker, metrics — flows through here, and Normalize is the one place
// defaults are filled and invariants checked.
//
// The zero value normalizes to the paper's operational parameters (§6.1):
// 250 concurrent connections, 8-minute greylist backoff, 90-second
// reconnect gap.
type Config struct {
	// Suite labels all probes of the campaign.
	Suite string
	// Concurrency caps simultaneous SMTP probes (paper: 250), and so
	// the simulated hosts live at once: each host runs only for its own
	// probe.
	Concurrency int
	// BatchSize is the delivery window: how many outcomes, and trace
	// buffers, a campaign holds before it hands them on in input order.
	// It does not bound live hosts; Concurrency does.
	BatchSize int
	// GreylistWait is the pause before retrying a 450 (paper: 8 min).
	GreylistWait time.Duration
	// ReconnectWait is the minimum pause between connections to the same
	// server (paper: 90 s).
	ReconnectWait time.Duration
	// IOTimeout bounds SMTP I/O. It is spent in real time even on a
	// simulated clock, so keep it small in simulation.
	IOTimeout time.Duration
	// Retry reruns transiently failed probes (bounded attempts, seeded
	// jittered backoff on the campaign clock). Zero value: one attempt.
	Retry retry.Policy
	// Breaker configures the campaign's shared per-address circuit
	// breaker. Zero value: disabled.
	Breaker retry.BreakerConfig
	// Metrics overrides the rig's registry for campaign telemetry; nil
	// uses the rig's.
	Metrics *telemetry.Registry
	// Trace overrides the rig's tracer for per-probe span capture; nil
	// uses the rig's (which may itself be nil = tracing disabled).
	Trace *trace.Tracer
}

// DefaultConfig returns the paper's operational parameters, already
// normalized.
func DefaultConfig() Config {
	cfg, err := Config{}.Normalize()
	if err != nil {
		panic("measure: zero Config does not normalize: " + err.Error())
	}
	return cfg
}

// Normalize validates the config and fills the paper defaults. It returns
// the completed config rather than mutating in place, so partially-filled
// literals stay comparable in tests.
func (c Config) Normalize() (Config, error) {
	if c.Concurrency < 0 {
		return c, fmt.Errorf("measure: Concurrency %d is negative", c.Concurrency)
	}
	if c.Concurrency == 0 {
		c.Concurrency = 250
	}
	if c.BatchSize < 0 {
		return c, fmt.Errorf("measure: BatchSize %d is negative", c.BatchSize)
	}
	if c.BatchSize == 0 {
		c.BatchSize = 2000
	}
	if c.GreylistWait < 0 {
		return c, fmt.Errorf("measure: GreylistWait %v is negative", c.GreylistWait)
	}
	if c.GreylistWait == 0 {
		c.GreylistWait = 8 * time.Minute
	}
	if c.ReconnectWait < 0 {
		return c, fmt.Errorf("measure: ReconnectWait %v is negative", c.ReconnectWait)
	}
	if c.ReconnectWait == 0 {
		c.ReconnectWait = 90 * time.Second
	}
	if c.IOTimeout < 0 {
		return c, fmt.Errorf("measure: IOTimeout %v is negative", c.IOTimeout)
	}
	if c.IOTimeout == 0 {
		c.IOTimeout = 30 * time.Second
	}
	var err error
	if c.Retry, err = c.Retry.Normalize(); err != nil {
		return c, err
	}
	if c.Breaker, err = c.Breaker.Normalize(); err != nil {
		return c, err
	}
	return c, nil
}
