// Package httpwire builds and parses cleartext HTTP/1.x requests — the
// other tampering trigger visible to middleboxes (paper §2.1: forbidden
// domain names in Host headers, keywords in GET requests).
//
// It is deliberately not net/http: the classifier must parse *partial*
// requests from truncated captures and must never normalize away the
// raw bytes a middlebox would have matched on.
package httpwire

import (
	"bytes"
	"errors"
	"strings"
)

// Request is a parsed (possibly partial) HTTP/1.x request.
type Request struct {
	Method  string
	Target  string // request-target as sent, e.g. "/news?id=3"
	Proto   string // e.g. "HTTP/1.1"
	Host    string // Host header value, if captured
	Headers map[string]string
	// Complete reports whether the full header block (terminating
	// CRLFCRLF) was present in the captured bytes.
	Complete bool
}

// Parse errors.
var (
	ErrNotHTTP = errors.New("httpwire: does not start with an HTTP method")
)

// BuildRequest serializes a simple HTTP/1.1 GET-style request.
func BuildRequest(method, host, target string, headers map[string]string) []byte {
	return AppendRequest(nil, method, host, target, headers)
}

// AppendRequest appends the request BuildRequest would build to dst,
// so a caller that reuses dst allocates nothing.
func AppendRequest(dst []byte, method, host, target string, headers map[string]string) []byte {
	if method == "" {
		method = "GET"
	}
	if target == "" {
		target = "/"
	}
	dst = append(dst, method...)
	dst = append(dst, ' ')
	dst = append(dst, target...)
	dst = append(dst, " HTTP/1.1\r\nHost: "...)
	dst = append(dst, host...)
	dst = append(dst, "\r\n"...)
	for k, v := range headers {
		dst = append(dst, k...)
		dst = append(dst, ": "...)
		dst = append(dst, v...)
		dst = append(dst, "\r\n"...)
	}
	return append(dst, "\r\n"...)
}

// methods we accept as the start of a request line. Middleboxes
// typically match these token prefixes too.
var methods = []string{"GET", "POST", "HEAD", "PUT", "DELETE", "OPTIONS", "CONNECT", "PATCH", "TRACE"}

// LooksLikeRequest reports whether data plausibly begins with an HTTP
// request line. Used for SYN-payload analysis (§4.1) and protocol
// classification of captured data packets. It never allocates: this
// runs once per captured payload on the classification hot path.
func LooksLikeRequest(data []byte) bool {
	if len(data) == 0 {
		return false
	}
	for _, m := range methods {
		if len(data) > len(m) && data[len(m)] == ' ' && string(data[:len(m)]) == m {
			return true
		}
		// A truncated capture may cut mid-method; accept a prefix of a
		// method only if the data is shorter than the method itself.
		if len(data) < len(m) && string(data) == m[:len(data)] {
			return true
		}
	}
	return false
}

// ParseRequest parses as much of an HTTP request as the captured bytes
// allow. A request line alone yields Method/Target/Proto; a Host header
// in the captured prefix yields Host even if the header block is
// incomplete.
func ParseRequest(data []byte) (*Request, error) {
	if !LooksLikeRequest(data) {
		return nil, ErrNotHTTP
	}
	s := string(data)
	req := &Request{Headers: make(map[string]string)}
	head, _, complete := strings.Cut(s, "\r\n\r\n")
	req.Complete = complete
	lines := strings.Split(head, "\r\n")
	// Request line.
	parts := strings.SplitN(lines[0], " ", 3)
	req.Method = parts[0]
	if len(parts) > 1 {
		req.Target = parts[1]
	}
	if len(parts) > 2 {
		req.Proto = parts[2]
	}
	// Headers; the final line may be truncated mid-header, which we
	// keep only if it already has a colon.
	for _, line := range lines[1:] {
		k, v, ok := strings.Cut(line, ":")
		if !ok || k == "" {
			continue
		}
		key := strings.ToLower(strings.TrimSpace(k))
		val := strings.TrimSpace(v)
		req.Headers[key] = val
		if key == "host" {
			req.Host = val
		}
	}
	return req, nil
}

// HostOf is a convenience that extracts only the Host header (the
// middlebox trigger) from captured request bytes, or "" if absent.
func HostOf(data []byte) string {
	return string(HostBytes(data))
}

var (
	crlfcrlf = []byte("\r\n\r\n")
	hostKey  = []byte("host")
)

// HostBytes is the allocation-free core of HostOf: it returns the Host
// header value as a subslice of data, or nil if absent. The hot
// classification path interns the result instead of paying a string
// allocation per captured payload; the returned slice aliases data and
// must be copied before data is reused.
func HostBytes(data []byte) []byte {
	if !LooksLikeRequest(data) {
		return nil
	}
	head := data
	if i := bytes.Index(data, crlfcrlf); i >= 0 {
		head = data[:i]
	}
	// Walk header lines past the request line, mirroring ParseRequest:
	// keys compare case-insensitively and a later Host header wins. The
	// final line may be truncated mid-header, which counts only if its
	// colon survived.
	var host []byte
	first := true
	for len(head) > 0 {
		line := head
		if i := bytes.Index(head, crlfcrlf[:2]); i >= 0 {
			line, head = head[:i], head[i+2:]
		} else {
			head = nil
		}
		if first {
			first = false
			continue
		}
		c := bytes.IndexByte(line, ':')
		if c <= 0 {
			continue
		}
		if bytes.EqualFold(bytes.TrimSpace(line[:c]), hostKey) {
			host = bytes.TrimSpace(line[c+1:])
		}
	}
	return host
}
