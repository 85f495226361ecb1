package pathmgr

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/upin/scionpath/internal/addr"
)

// Predicate is a hop predicate "ISD-AS#IF" as accepted by the scion tools'
// --sequence flag. Zero components are wildcards: "0-0#0" matches any hop,
// "16-0#0" matches any hop in ISD 16, "16-ffaa:0:1002#0" matches any
// interface of that AS, and "16-ffaa:0:1002#3" pins one interface.
type Predicate struct {
	ISD addr.ISD
	AS  addr.AS
	// IfIDs are the interfaces the predicate pins; empty means wildcard.
	IfIDs []addr.IfID
}

// ParsePredicate parses "ISD-AS", "ISD-AS#IF" or "ISD-AS#IF1,IF2".
func ParsePredicate(s string) (Predicate, error) {
	iaPart, ifPart, hasIf := strings.Cut(s, "#")
	var p Predicate
	isdStr, asStr, ok := strings.Cut(iaPart, "-")
	if !ok {
		return p, fmt.Errorf("pathmgr: predicate %q: missing '-'", s)
	}
	isd, err := strconv.ParseUint(isdStr, 10, 16)
	if err != nil {
		return p, fmt.Errorf("pathmgr: predicate %q: bad ISD: %w", s, err)
	}
	p.ISD = addr.ISD(isd)
	as, err := addr.ParseAS(asStr)
	if err != nil {
		return p, fmt.Errorf("pathmgr: predicate %q: %w", s, err)
	}
	p.AS = as
	if hasIf && ifPart != "" {
		for _, part := range strings.Split(ifPart, ",") {
			ifid, err := strconv.ParseUint(strings.TrimSpace(part), 10, 16)
			if err != nil {
				return p, fmt.Errorf("pathmgr: predicate %q: bad interface: %w", s, err)
			}
			if ifid != 0 {
				p.IfIDs = append(p.IfIDs, addr.IfID(ifid))
			}
		}
	}
	return p, nil
}

// String renders the predicate canonically.
func (p Predicate) String() string {
	return string(p.appendTo(make([]byte, 0, 32)))
}

func (p Predicate) appendTo(b []byte) []byte {
	b = addr.IA{ISD: p.ISD, AS: p.AS}.AppendTo(b)
	for i, ifid := range p.IfIDs {
		if i == 0 {
			b = append(b, '#')
		} else {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, uint64(ifid), 10)
	}
	return b
}

// MatchHop reports whether the predicate matches a hop. Wildcard components
// (zero) match anything; interface lists match if every listed interface is
// one of the hop's in/out interfaces.
func (p Predicate) MatchHop(h Hop) bool {
	if p.ISD != 0 && p.ISD != h.IA.ISD {
		return false
	}
	if p.AS != 0 && p.AS != h.IA.AS {
		return false
	}
	for _, ifid := range p.IfIDs {
		if ifid != h.In && ifid != h.Out {
			return false
		}
	}
	return true
}

// Sequence is an ordered list of hop predicates that a whole path must
// satisfy hop-by-hop, the semantics the paper's test-suite relies on when it
// passes `--sequence '{hop_predicates}'` to pin the exact route under test.
// An element may also be the glob token "*", matching any run of hops (zero
// or more), so partial routes can be pinned: "17-ffaa:1:1#1 * 19-0 *"
// accepts any path leaving MY_AS that crosses ISD 19.
type Sequence []Predicate

// globIfIDMarker marks the "*" token inside a Sequence: a predicate with
// ISD 0, AS 0 and this sentinel interface id. Interface 0 stays the
// ordinary wildcard, so the sentinel can never be produced by parsing a
// hop predicate.
const globIfIDMarker = 0xffff

func globToken() Predicate {
	return Predicate{IfIDs: []addr.IfID{globIfIDMarker}}
}

// isGlob reports whether the predicate is the "*" token.
func (p Predicate) isGlob() bool {
	return p.ISD == 0 && p.AS == 0 && len(p.IfIDs) == 1 && p.IfIDs[0] == globIfIDMarker
}

// ParseSequence parses a space-separated predicate list; "*" elements are
// glob tokens. An empty string yields an empty sequence, which matches
// every path.
func ParseSequence(s string) (Sequence, error) {
	fields := strings.Fields(s)
	seq := make(Sequence, 0, len(fields))
	for _, f := range fields {
		if f == "*" {
			seq = append(seq, globToken())
			continue
		}
		p, err := ParsePredicate(f)
		if err != nil {
			return nil, err
		}
		seq = append(seq, p)
	}
	return seq, nil
}

// String renders the sequence in the form accepted by ParseSequence.
func (s Sequence) String() string {
	b := make([]byte, 0, 24*len(s))
	for i, p := range s {
		b = p.appendToken(b, i)
	}
	return string(b)
}

// appendToken appends the predicate as the i-th token of a rendered
// sequence: space-separated, a glob as "*".
func (p Predicate) appendToken(b []byte, i int) []byte {
	if i > 0 {
		b = append(b, ' ')
	}
	if p.isGlob() {
		return append(b, '*')
	}
	return p.appendTo(b)
}

// MatchPath reports whether the path satisfies the sequence. Without glob
// tokens the match is positional and length-exact (a fully pinned route);
// "*" tokens absorb any run of hops.
func (s Sequence) MatchPath(p *Path) bool {
	if len(s) == 0 {
		return true
	}
	return matchFrom(s, p.Hops)
}

// matchFrom is a standard glob matcher over (predicates, hops).
func matchFrom(seq []Predicate, hops []Hop) bool {
	// Iterative two-pointer with backtracking on the last glob.
	i, j := 0, 0
	star, starHop := -1, 0
	for j < len(hops) {
		switch {
		case i < len(seq) && seq[i].isGlob():
			star, starHop = i, j
			i++
		case i < len(seq) && seq[i].MatchHop(hops[j]):
			i++
			j++
		case star >= 0:
			starHop++
			i, j = star+1, starHop
		default:
			return false
		}
	}
	for i < len(seq) && seq[i].isGlob() {
		i++
	}
	return i == len(seq)
}

// PathSequence builds the fully pinned sequence of a path, such that
// PathSequence(p).MatchPath(p) always holds and distinguishes p from any
// other loop-free path between the same endpoints.
func PathSequence(p *Path) Sequence {
	seq := make(Sequence, len(p.Hops))
	for i, h := range p.Hops {
		seq[i] = pinnedPredicate(h, nil)
	}
	return seq
}

// pinnedPredicate is the predicate PathSequence pins hop h with; its
// interface list is appended to ifids.
func pinnedPredicate(h Hop, ifids []addr.IfID) Predicate {
	if h.In != 0 {
		ifids = append(ifids, h.In)
	}
	if h.Out != 0 {
		ifids = append(ifids, h.Out)
	}
	return Predicate{ISD: h.IA.ISD, AS: h.IA.AS, IfIDs: ifids}
}

// AppendPathSequence appends PathSequence(p).String() — the form the paths
// collection stores — to b without building the Sequence.
func AppendPathSequence(b []byte, p *Path) []byte {
	for i, h := range p.Hops {
		var ifids [2]addr.IfID
		b = pinnedPredicate(h, ifids[:0]).appendToken(b, i)
	}
	return b
}

// FindBySequence returns the first path in paths matched by the sequence,
// or nil. The measurement runner uses it to resolve the stored hop
// predicates of a database path back to a live path object.
func FindBySequence(paths []*Path, seq Sequence) *Path {
	for _, p := range paths {
		if seq.MatchPath(p) {
			return p
		}
	}
	return nil
}
