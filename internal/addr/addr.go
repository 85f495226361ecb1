// Package addr implements SCION addressing: ISD (isolation domain)
// identifiers, AS numbers in the BGP-style and SCION-style ("ffaa:0:1101")
// notations, combined ISD-AS identifiers such as "16-ffaa:0:1002", and full
// SCION host addresses such as "16-ffaa:0:1002,[172.31.43.7]".
//
// The formats follow the SCION documentation and the strings printed by the
// scion command-line tools used in the paper (showpaths, ping, traceroute,
// bwtestclient).
package addr

import (
	"fmt"
	"strconv"
	"strings"
)

// ISD is an isolation-domain identifier. ISDs group ASes into independent
// routing planes; SCIONLab uses ISDs 16..20 plus a few regional ones.
type ISD uint16

// AS is a SCION AS number, a 48-bit value. Values below 2^32 may be printed
// in decimal (BGP compatibility); larger values use the colon-separated
// 16-bit group notation, e.g. "ffaa:0:1101".
type AS uint64

// MaxAS is the largest valid AS number (48 bits).
const MaxAS AS = (1 << 48) - 1

// asDecimalMax is the threshold below which AS numbers render in decimal.
const asDecimalMax AS = 1 << 32

// IA is a combined ISD-AS identifier, e.g. "16-ffaa:0:1002".
type IA struct {
	ISD ISD
	AS  AS
}

// Zero reports whether ia is the zero value (wildcard in hop predicates).
func (ia IA) Zero() bool { return ia.ISD == 0 && ia.AS == 0 }

// String renders the ISD-AS pair in canonical SCION notation.
func (ia IA) String() string {
	return string(ia.AppendTo(make([]byte, 0, 24)))
}

// AppendTo appends the String rendering to b, so callers that render many
// identifiers (a path's hop predicates) fill one buffer.
func (ia IA) AppendTo(b []byte) []byte {
	b = strconv.AppendUint(b, uint64(ia.ISD), 10)
	b = append(b, '-')
	return ia.AS.AppendTo(b)
}

// String renders the AS number: decimal when it fits in 32 bits, otherwise
// three colon-separated 16-bit hexadecimal groups.
func (a AS) String() string {
	return string(a.AppendTo(make([]byte, 0, 16)))
}

// AppendTo appends the String rendering to b.
func (a AS) AppendTo(b []byte) []byte {
	if a > MaxAS {
		b = append(b, "<invalid AS "...)
		b = strconv.AppendUint(b, uint64(a), 10)
		return append(b, '>')
	}
	if a < asDecimalMax {
		return strconv.AppendUint(b, uint64(a), 10)
	}
	b = strconv.AppendUint(b, uint64(uint16(a>>32)), 16)
	b = append(b, ':')
	b = strconv.AppendUint(b, uint64(uint16(a>>16)), 16)
	b = append(b, ':')
	return strconv.AppendUint(b, uint64(uint16(a)), 16)
}

// ParseAS parses an AS number in either decimal or colon notation.
func ParseAS(s string) (AS, error) {
	if s == "" {
		return 0, fmt.Errorf("addr: empty AS")
	}
	if strings.Contains(s, ":") {
		parts := strings.Split(s, ":")
		if len(parts) != 3 {
			return 0, fmt.Errorf("addr: AS %q: want 3 colon groups, have %d", s, len(parts))
		}
		var v uint64
		for _, p := range parts {
			if p == "" {
				return 0, fmt.Errorf("addr: AS %q: empty group", s)
			}
			g, err := strconv.ParseUint(p, 16, 16)
			if err != nil {
				return 0, fmt.Errorf("addr: AS %q: %w", s, err)
			}
			v = v<<16 | g
		}
		return AS(v), nil
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("addr: AS %q: %w", s, err)
	}
	if AS(v) > MaxAS {
		return 0, fmt.Errorf("addr: AS %q exceeds 48 bits", s)
	}
	return AS(v), nil
}

// MustParseAS is ParseAS that panics on error; for constants in tests and
// topology literals.
func MustParseAS(s string) AS {
	a, err := ParseAS(s)
	if err != nil {
		panic(err)
	}
	return a
}

// ParseIA parses an ISD-AS pair such as "16-ffaa:0:1002".
func ParseIA(s string) (IA, error) {
	isdStr, asStr, ok := strings.Cut(s, "-")
	if !ok {
		return IA{}, fmt.Errorf("addr: ISD-AS %q: missing '-'", s)
	}
	isd, err := strconv.ParseUint(isdStr, 10, 16)
	if err != nil {
		return IA{}, fmt.Errorf("addr: ISD-AS %q: bad ISD: %w", s, err)
	}
	as, err := ParseAS(asStr)
	if err != nil {
		return IA{}, fmt.Errorf("addr: ISD-AS %q: bad AS: %w", s, err)
	}
	return IA{ISD: ISD(isd), AS: as}, nil
}

// MustParseIA is ParseIA that panics on error.
func MustParseIA(s string) IA {
	ia, err := ParseIA(s)
	if err != nil {
		panic(err)
	}
	return ia
}

// Host is a full SCION host address: an ISD-AS plus an AS-local host
// identifier, rendered as "16-ffaa:0:1002,[172.31.43.7]". The local part is
// treated as an opaque string (IPv4, IPv6, or service name).
type Host struct {
	IA    IA
	Local string
}

// String renders the host address in the bracketed form the scion tools use.
func (h Host) String() string {
	return fmt.Sprintf("%s,[%s]", h.IA, h.Local)
}

// ParseHost parses "ISD-AS,[local]" or the unbracketed "ISD-AS,local" form.
func ParseHost(s string) (Host, error) {
	iaStr, local, ok := strings.Cut(s, ",")
	if !ok {
		return Host{}, fmt.Errorf("addr: host %q: missing ','", s)
	}
	ia, err := ParseIA(iaStr)
	if err != nil {
		return Host{}, err
	}
	local = strings.TrimSpace(local)
	if strings.HasPrefix(local, "[") && strings.HasSuffix(local, "]") {
		local = local[1 : len(local)-1]
	}
	if local == "" {
		return Host{}, fmt.Errorf("addr: host %q: empty local part", s)
	}
	return Host{IA: ia, Local: local}, nil
}

// MustParseHost is ParseHost that panics on error.
func MustParseHost(s string) Host {
	h, err := ParseHost(s)
	if err != nil {
		panic(err)
	}
	return h
}

// IfID identifies an interface of an AS border router. Interface 0 is the
// wildcard in hop predicates.
type IfID uint16
