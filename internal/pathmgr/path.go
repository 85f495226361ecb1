// Package pathmgr turns registered path segments into end-to-end SCION
// paths and provides the path metadata and hop-predicate machinery the
// scion tools expose (showpaths --extended, ping --sequence, ...).
package pathmgr

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/upin/scionpath/internal/addr"
	"github.com/upin/scionpath/internal/geo"
	"github.com/upin/scionpath/internal/topology"
)

// Hop is one AS traversed by a path with the ingress/egress interfaces used.
// In is 0 at the source AS, Out is 0 at the destination AS.
type Hop struct {
	IA  addr.IA
	In  addr.IfID
	Out addr.IfID
}

// String renders the hop in showpaths notation "IA#in,out" (source and
// destination render the single relevant interface).
func (h Hop) String() string {
	return string(h.appendTo(make([]byte, 0, 32)))
}

func (h Hop) appendTo(b []byte) []byte {
	b = h.IA.AppendTo(b)
	b = append(b, '#')
	switch {
	case h.In == 0:
		return strconv.AppendUint(b, uint64(h.Out), 10)
	case h.Out == 0:
		return strconv.AppendUint(b, uint64(h.In), 10)
	default:
		b = strconv.AppendUint(b, uint64(h.In), 10)
		b = append(b, ',')
		return strconv.AppendUint(b, uint64(h.Out), 10)
	}
}

// Path is an end-to-end SCION path from Src to Dst.
type Path struct {
	Src, Dst addr.IA
	Hops     []Hop
	// MTU is the minimum MTU over all links of the path.
	MTU int
	// Expiry is when the underlying segments expire (informational).
	Expiry time.Time
	// MinLatency is the static latency estimate showpaths --extended
	// prints: the one-way geographic propagation lower bound.
	MinLatency time.Duration
	// Status is the probed liveness ("alive", "timeout", ...).
	Status string
}

// NumHops returns the number of ASes the path traverses, the "Hops" count
// the scion tools report and the paper's selection criterion (§5.2).
func (p *Path) NumHops() int { return len(p.Hops) }

// ISDSet returns the sorted set of ISDs the path traverses. The paper
// stores this with every measurement and groups Fig 6 by it.
func (p *Path) ISDSet() []addr.ISD {
	return p.AppendISDSet(make([]addr.ISD, 0, 4))
}

// AppendISDSet appends ISDSet to dst. A path crosses a handful of ISDs, so
// the set is kept sorted by insertion instead of through a map.
func (p *Path) AppendISDSet(dst []addr.ISD) []addr.ISD {
	base := len(dst)
	for _, h := range p.Hops {
		isd := h.IA.ISD
		i := len(dst)
		for i > base && dst[i-1] > isd {
			i--
		}
		if i > base && dst[i-1] == isd {
			continue
		}
		dst = append(dst, 0)
		copy(dst[i+1:], dst[i:])
		dst[i] = isd
	}
	return dst
}

// ISDSetKey renders the ISD set canonically, e.g. "16-17".
func (p *Path) ISDSetKey() string {
	isds := p.ISDSet()
	parts := make([]string, len(isds))
	for i, isd := range isds {
		parts[i] = strconv.Itoa(int(isd))
	}
	return strings.Join(parts, "-")
}

// Contains reports whether the path traverses the given AS.
func (p *Path) Contains(ia addr.IA) bool {
	for _, h := range p.Hops {
		if h.IA == ia {
			return true
		}
	}
	return false
}

// HasLoop reports whether any AS repeats.
func (p *Path) HasLoop() bool {
	seen := make(map[addr.IA]bool, len(p.Hops))
	for _, h := range p.Hops {
		if seen[h.IA] {
			return true
		}
		seen[h.IA] = true
	}
	return false
}

// Sequence renders the full hop-predicate sequence of the path, the string
// passed to `scion ping --sequence '...'` to pin the route (§5.3).
func (p *Path) Sequence() string {
	return string(p.appendSequence(make([]byte, 0, 24*len(p.Hops))))
}

// appendSequence appends Sequence to b; AppendFingerprint hashes it without
// the string copy.
func (p *Path) appendSequence(b []byte) []byte {
	for i, h := range p.Hops {
		if i > 0 {
			b = append(b, ' ')
		}
		b = h.appendTo(b)
	}
	return b
}

// Fingerprint returns a short stable identifier derived from the hop
// sequence, as the scion tools print.
func (p *Path) Fingerprint() string {
	return string(p.AppendFingerprint(make([]byte, 0, 24*len(p.Hops))))
}

// AppendFingerprint appends Fingerprint to b, using b's spare capacity for
// the pre-image: a caller that reuses one buffer renders and hashes without
// allocating.
func (p *Path) AppendFingerprint(b []byte) []byte {
	n := len(b)
	b = p.appendSequence(b)
	sum := sha256.Sum256(b[n:])
	return hex.AppendEncode(b[:n], sum[:8])
}

// String renders the path like showpaths: "Hops: [A 1>2 B 3>4 C] MTU: n".
func (p *Path) String() string {
	var b strings.Builder
	b.WriteString("[")
	for i, h := range p.Hops {
		if i > 0 {
			fmt.Fprintf(&b, " %d>%d ", p.Hops[i-1].Out, h.In)
		}
		b.WriteString(h.IA.String())
	}
	fmt.Fprintf(&b, "] MTU: %d Hops: %d", p.MTU, p.NumHops())
	return b.String()
}

// Expired reports whether the path's segments have expired at simulated
// time now (durations measure time since the simulation epoch).
func (p *Path) Expired(now time.Duration) bool {
	return !p.Expiry.IsZero() && time.Unix(0, 0).Add(now).After(p.Expiry)
}

// annotate fills the derived fields (MTU, MinLatency) from the topology.
func (p *Path) annotate(topo *topology.Topology) error {
	mtu := 0
	var lat time.Duration
	for i := 0; i+1 < len(p.Hops); i++ {
		a, b := p.Hops[i].IA, p.Hops[i+1].IA
		l := topo.LinkBetween(a, b)
		if l == nil {
			return fmt.Errorf("pathmgr: path hop %s--%s has no link", a, b)
		}
		if mtu == 0 || l.MTU < mtu {
			mtu = l.MTU
		}
		asA, asB := topo.AS(a), topo.AS(b)
		lat += geo.PropagationDelay(asA.Site.Coords, asB.Site.Coords)
	}
	p.MTU = mtu
	p.MinLatency = lat
	p.Status = "alive"
	return nil
}
