// Package smtp implements the subset of RFC 5321 needed on both sides of
// the SPFail measurement: a server framework with policy hooks at the
// points where real MTAs trigger SPF validation (MAIL FROM and
// end-of-data), and a client capable of the paper's two probe transactions
// — NoMsg (terminate before sending any message) and BlankMsg (transmit an
// entirely empty message).
package smtp

import (
	"fmt"
	"strings"
)

// Reply is an SMTP response: a three-digit code and one or more text lines.
type Reply struct {
	Code  int
	Lines []string
}

// NewReply builds a single-line reply.
func NewReply(code int, text string) *Reply {
	return &Reply{Code: code, Lines: []string{text}}
}

// Replyf builds a single-line reply with formatting.
func Replyf(code int, format string, args ...interface{}) *Reply {
	return NewReply(code, fmt.Sprintf(format, args...))
}

// Common replies.
var (
	ReplyOK             = NewReply(250, "OK")
	ReplyStartMail      = NewReply(354, "Start mail input; end with <CRLF>.<CRLF>")
	ReplyBye            = NewReply(221, "Bye")
	ReplyGreylisted     = NewReply(450, "Greylisted, try again later")
	ReplyNoSuchUser     = NewReply(550, "No such user here")
	ReplyBadSequence    = NewReply(503, "Bad sequence of commands")
	ReplySyntaxError    = NewReply(500, "Syntax error, command unrecognized")
	ReplyParamError     = NewReply(501, "Syntax error in parameters or arguments")
	ReplyNotImplemented = NewReply(502, "Command not implemented")
	ReplyShuttingDown   = NewReply(421, "Service not available, closing transmission channel")
	ReplyRejectedPolicy = NewReply(554, "Transaction failed: policy rejection")
)

// Positive reports whether the code is a 2xx/3xx success.
func (r *Reply) Positive() bool { return r.Code >= 200 && r.Code < 400 }

// Transient reports a 4xx temporary failure (greylisting, load shedding).
func (r *Reply) Transient() bool { return r.Code >= 400 && r.Code < 500 }

// String renders the reply's wire form without trailing CRLF on the last
// line.
func (r *Reply) String() string {
	if len(r.Lines) == 0 {
		return fmt.Sprintf("%d", r.Code)
	}
	var b strings.Builder
	for i, line := range r.Lines {
		sep := " "
		if i < len(r.Lines)-1 {
			sep = "-"
		}
		if i > 0 {
			b.WriteString("\r\n")
		}
		fmt.Fprintf(&b, "%d%s%s", r.Code, sep, line)
	}
	return b.String()
}

// ReplyError wraps a negative reply as an error, preserving the code so
// the prober can categorize where a transaction failed.
type ReplyError struct {
	Reply Reply
}

// Error implements error.
func (e *ReplyError) Error() string {
	return fmt.Sprintf("smtp: server replied %s", e.Reply.String())
}

// ParsePath extracts the mailbox from a MAIL FROM / RCPT TO argument:
// "<user@example.com>" (angle brackets optional, ESMTP parameters after the
// path are ignored). An empty path "<>" is allowed for MAIL FROM. A mailbox
// holds no space, control character or angle bracket, contains an "@" and
// does not start with one, so parsing a returned mailbox again gives it
// back unchanged. Bytes above ASCII pass through (the paper's
// CVE-2021-33912 path needs a high-byte local part).
func ParsePath(arg string) (string, error) {
	arg = strings.Trim(arg, " \t")
	if i := strings.IndexByte(arg, ' '); i >= 0 {
		arg = arg[:i] // strip ESMTP parameters (SIZE=..., BODY=...)
	}
	if strings.HasPrefix(arg, "<") {
		if !strings.HasSuffix(arg, ">") {
			return "", fmt.Errorf("smtp: unbalanced angle brackets in %q", arg)
		}
		arg = arg[1 : len(arg)-1]
	}
	// Strip source route ("@a,@b:user@dom") if present.
	if strings.HasPrefix(arg, "@") {
		if i := strings.IndexByte(arg, ':'); i >= 0 {
			arg = arg[i+1:]
		}
	}
	if arg == "" {
		return "", nil // null reverse-path
	}
	if !strings.Contains(arg, "@") {
		return "", fmt.Errorf("smtp: path %q has no domain", arg)
	}
	if arg[0] == '@' {
		return "", fmt.Errorf("smtp: path %q has no local part", arg)
	}
	for i := 0; i < len(arg); i++ {
		if c := arg[i]; c <= ' ' || c == 0x7f || c == '<' || c == '>' {
			return "", fmt.Errorf("smtp: invalid character in path %q", arg)
		}
	}
	return arg, nil
}

// AddressDomain returns the domain part of a mailbox, lower-cased.
func AddressDomain(addr string) string {
	if i := strings.LastIndexByte(addr, '@'); i >= 0 {
		return strings.ToLower(addr[i+1:])
	}
	return ""
}

// AddressLocal returns the local part of a mailbox.
func AddressLocal(addr string) string {
	if i := strings.LastIndexByte(addr, '@'); i >= 0 {
		return addr[:i]
	}
	return addr
}
