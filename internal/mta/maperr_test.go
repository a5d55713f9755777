package mta

import (
	"context"
	"errors"
	"fmt"
	"os"
	"testing"

	"spfail/internal/dnsclient"
	"spfail/internal/spf"
)

// TestMapErrMatchesWrappedFormat: mapErr's errors read, and match under
// errors.Is, exactly as the fmt.Errorf("%w: %v") errors it used to build,
// so traced error attributes and the evaluators' branches stay as they
// were.
func TestMapErrMatchesWrappedFormat(t *testing.T) {
	timeout := fmt.Errorf("%w: %v", dnsclient.ErrTemporary, os.ErrDeadlineExceeded)
	cases := []struct {
		name string
		err  error
		kind error // the sentinel mapErr used to wrap
	}{
		{"nxdomain", dnsclient.ErrNotFound, spf.ErrNotFound},
		{"wrapped nxdomain", fmt.Errorf("lookup x.example: %w", dnsclient.ErrNotFound), spf.ErrNotFound},
		{"servfail", fmt.Errorf("%w: rcode SERVFAIL", dnsclient.ErrTemporary), spf.ErrTemporary},
		{"timeout", timeout, spf.ErrTemporary},
		{"cancelled", context.Canceled, spf.ErrTemporary},
		{"other", errors.New("dnsclient: truncated over TCP too"), spf.ErrTemporary},
	}
	targets := []error{
		spf.ErrNotFound, spf.ErrTemporary,
		dnsclient.ErrNotFound, dnsclient.ErrTemporary,
		context.Canceled, os.ErrDeadlineExceeded,
	}
	for _, tc := range cases {
		got, want := mapErr(tc.err), fmt.Errorf("%w: %v", tc.kind, tc.err)
		if got.Error() != want.Error() {
			t.Errorf("%s: mapErr reads %q, want %q", tc.name, got.Error(), want.Error())
		}
		for _, target := range targets {
			if g, w := errors.Is(got, target), errors.Is(want, target); g != w {
				t.Errorf("%s: errors.Is(mapErr, %v) = %v, want %v", tc.name, target, g, w)
			}
		}
		if errors.Unwrap(got) != tc.kind {
			t.Errorf("%s: mapErr unwraps to %v, want %v", tc.name, errors.Unwrap(got), tc.kind)
		}
	}
	if mapErr(nil) != nil {
		t.Error("mapErr(nil) != nil")
	}
}
