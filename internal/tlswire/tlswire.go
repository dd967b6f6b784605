// Package tlswire builds and parses the single TLS message that matters
// to connection-tampering analysis: the ClientHello, whose cleartext
// Server Name Indication (SNI) extension is the dominant trigger for
// HTTPS blocking (paper §2.1).
//
// The builder emits a wire-accurate TLS 1.2/1.3-compatible ClientHello
// record; the parser extracts the SNI from arbitrary (possibly
// truncated) captured bytes, because the capture pipeline stores at most
// the first packets of a connection and a ClientHello may be split.
package tlswire

import (
	"encoding/binary"
	"errors"
)

// TLS record and handshake constants.
const (
	RecordTypeHandshake   = 22
	HandshakeClientHello  = 1
	VersionTLS10          = 0x0301
	VersionTLS12          = 0x0303
	ExtensionServerName   = 0
	ExtensionSupportedVer = 43
	sniHostNameType       = 0
)

// Parse errors.
var (
	ErrNotHandshake   = errors.New("tlswire: not a TLS handshake record")
	ErrNotClientHello = errors.New("tlswire: not a ClientHello")
	ErrTruncated      = errors.New("tlswire: truncated message")
	ErrNoSNI          = errors.New("tlswire: no server_name extension")
)

// ClientHelloSpec describes the ClientHello to build.
type ClientHelloSpec struct {
	ServerName   string   // SNI; empty omits the extension
	Random       [32]byte // client random
	SessionID    []byte   // up to 32 bytes
	CipherSuites []uint16 // defaults to a modern set if empty
	ALPN         []string // ignored unless non-empty (kept minimal)
}

var defaultCiphers = []uint16{0x1301, 0x1302, 0x1303, 0xc02f, 0xc030}

// BuildClientHello serializes a TLS handshake record containing a
// ClientHello per the spec.
func BuildClientHello(spec ClientHelloSpec) []byte {
	return AppendClientHello(nil, spec)
}

// AppendClientHello appends the record BuildClientHello would build to
// dst, so a caller that reuses dst allocates nothing. Length fields are
// written as placeholders and patched once their extent is known.
func AppendClientHello(dst []byte, spec ClientHelloSpec) []byte {
	ciphers := spec.CipherSuites
	if len(ciphers) == 0 {
		ciphers = defaultCiphers
	}
	sid := spec.SessionID
	if len(sid) > 32 {
		sid = sid[:32]
	}

	// Record header, then the handshake header.
	rec := len(dst)
	dst = append(dst, RecordTypeHandshake)
	dst = append16(dst, VersionTLS10) // legacy record version
	dst = append16(dst, 0)            // record length
	hs := len(dst)
	dst = append(dst, HandshakeClientHello, 0, 0, 0) // body length

	// ClientHello body.
	body := len(dst)
	dst = append16(dst, VersionTLS12)
	dst = append(dst, spec.Random[:]...)
	dst = append(dst, byte(len(sid)))
	dst = append(dst, sid...)
	dst = append16(dst, uint16(2*len(ciphers)))
	for _, c := range ciphers {
		dst = append16(dst, c)
	}
	dst = append(dst, 1, 0) // compression methods: null only
	extLen := len(dst)
	dst = append16(dst, 0) // extensions length

	// Extensions.
	ext := len(dst)
	if spec.ServerName != "" {
		n := len(spec.ServerName)
		// server_name extension: list length (2) + type (1) + name length (2) + name
		dst = append16(dst, ExtensionServerName)
		dst = append16(dst, uint16(5+n))
		dst = append16(dst, uint16(3+n))
		dst = append(dst, sniHostNameType)
		dst = append16(dst, uint16(n))
		dst = append(dst, spec.ServerName...)
	}
	// supported_versions advertising TLS 1.3 and 1.2, so middleboxes
	// that look for it see a realistic hello.
	dst = append16(dst, ExtensionSupportedVer)
	dst = append16(dst, 5)
	dst = append(dst, 4, 0x03, 0x04, 0x03, 0x03)

	put16(dst[extLen:], uint16(len(dst)-ext))
	n := len(dst) - body
	dst[hs+1], dst[hs+2], dst[hs+3] = byte(n>>16), byte(n>>8), byte(n)
	put16(dst[rec+3:], uint16(len(dst)-hs))
	return dst
}

func put16(b []byte, v uint16) {
	b[0], b[1] = byte(v>>8), byte(v)
}

func append16(b []byte, v uint16) []byte {
	return append(b, byte(v>>8), byte(v))
}

// LooksLikeClientHello reports whether data plausibly begins with a TLS
// ClientHello record, tolerating truncation after the first 6 bytes.
// This is the check the paper runs on SYN payloads (§4.1: "only 0.02% of
// SYN packets contained a valid TLS Client Hello").
func LooksLikeClientHello(data []byte) bool {
	if len(data) < 6 {
		return false
	}
	return data[0] == RecordTypeHandshake &&
		data[1] == 0x03 && data[2] <= 0x04 &&
		data[5] == HandshakeClientHello
}

// ParseSNI extracts the server name from a captured ClientHello. It
// tolerates records truncated by the capture pipeline: if the SNI
// extension itself is present in the captured prefix it is returned even
// when the record claims more bytes than were captured.
func ParseSNI(data []byte) (string, error) {
	name, err := SNIBytes(data)
	if err != nil {
		return "", err
	}
	return string(name), nil
}

// SNIBytes is the allocation-free core of ParseSNI: the returned name
// is a subslice of data (aliasing it — copy before reuse), which lets
// the classification hot path intern repeated domains instead of
// allocating a string per connection.
func SNIBytes(data []byte) ([]byte, error) {
	if len(data) < 5 || data[0] != RecordTypeHandshake {
		return nil, ErrNotHandshake
	}
	body := data[5:]
	if len(body) < 4 || body[0] != HandshakeClientHello {
		return nil, ErrNotClientHello
	}
	p := body[4:] // skip handshake header
	// client_version(2) + random(32)
	if len(p) < 35 {
		return nil, ErrTruncated
	}
	p = p[34:]
	// session id
	sidLen := int(p[0])
	if len(p) < 1+sidLen+2 {
		return nil, ErrTruncated
	}
	p = p[1+sidLen:]
	// cipher suites
	csLen := int(binary.BigEndian.Uint16(p))
	if len(p) < 2+csLen+1 {
		return nil, ErrTruncated
	}
	p = p[2+csLen:]
	// compression methods
	cmLen := int(p[0])
	if len(p) < 1+cmLen+2 {
		return nil, ErrTruncated
	}
	p = p[1+cmLen:]
	// extensions
	extLen := int(binary.BigEndian.Uint16(p))
	p = p[2:]
	if extLen < len(p) {
		p = p[:extLen]
	}
	for len(p) >= 4 {
		typ := binary.BigEndian.Uint16(p)
		l := int(binary.BigEndian.Uint16(p[2:]))
		p = p[4:]
		if l > len(p) {
			// Truncated extension: only usable if it is the SNI and
			// enough of the name survived.
			if typ == ExtensionServerName {
				return parseSNIExtension(p)
			}
			return nil, ErrTruncated
		}
		if typ == ExtensionServerName {
			return parseSNIExtension(p[:l])
		}
		p = p[l:]
	}
	return nil, ErrNoSNI
}

// parseSNIExtension parses the server_name extension body, tolerating a
// truncated tail. The returned name aliases p.
func parseSNIExtension(p []byte) ([]byte, error) {
	if len(p) < 5 {
		return nil, ErrTruncated
	}
	// list length (2), then entry: type(1) + length(2) + name
	if p[2] != sniHostNameType {
		return nil, ErrNoSNI
	}
	nameLen := int(binary.BigEndian.Uint16(p[3:5]))
	name := p[5:]
	if nameLen <= len(name) {
		name = name[:nameLen]
	} else if len(name) == 0 {
		return nil, ErrTruncated
	}
	return name, nil
}
