package obs

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ErrBudgetExceeded is the sentinel all hard-breach errors wrap.
var ErrBudgetExceeded = errors.New("memory budget exceeded")

// BudgetError reports a hard RSS breach.
type BudgetError struct {
	// RSS is the observed resident set; Limit the one Collector.LimitRSS
	// armed.
	RSS, Limit int64
}

// Error implements error.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("obs: memory budget exceeded: rss %d bytes over hard limit %d bytes", e.RSS, e.Limit)
}

// Unwrap ties BudgetError to ErrBudgetExceeded for errors.Is.
func (e *BudgetError) Unwrap() error { return ErrBudgetExceeded }

// ParseBytes parses a human byte size: a number with an optional binary
// ("512MiB", "2g") or decimal ("500MB") suffix; a bare number is bytes.
// Single-letter suffixes are binary, matching how memory limits are
// usually meant.
func ParseBytes(s string) (int64, error) {
	t := strings.TrimSpace(strings.ToLower(s))
	if t == "" {
		return 0, fmt.Errorf("obs: empty byte size")
	}
	mult := float64(1)
	for _, suf := range []struct {
		tag string
		m   float64
	}{
		{"kib", 1 << 10}, {"mib", 1 << 20}, {"gib", 1 << 30}, {"tib", 1 << 40},
		{"kb", 1e3}, {"mb", 1e6}, {"gb", 1e9}, {"tb", 1e12},
		{"k", 1 << 10}, {"m", 1 << 20}, {"g", 1 << 30}, {"t", 1 << 40},
		{"b", 1},
	} {
		if strings.HasSuffix(t, suf.tag) {
			mult = suf.m
			t = strings.TrimSpace(strings.TrimSuffix(t, suf.tag))
			break
		}
	}
	v, err := strconv.ParseFloat(t, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("obs: bad byte size %q", s)
	}
	return int64(v * mult), nil
}
