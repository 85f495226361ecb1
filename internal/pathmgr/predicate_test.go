package pathmgr

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/upin/scionpath/internal/addr"
	"github.com/upin/scionpath/internal/segment"
	"github.com/upin/scionpath/internal/topology"
)

func TestParsePredicate(t *testing.T) {
	cases := []struct {
		in      string
		isd     addr.ISD
		as      string
		nIfIDs  int
		wantErr bool
	}{
		{"0-0#0", 0, "0", 0, false},
		{"16-0#0", 16, "0", 0, false},
		{"16-ffaa:0:1002#0", 16, "ffaa:0:1002", 0, false},
		{"16-ffaa:0:1002#3", 16, "ffaa:0:1002", 1, false},
		{"16-ffaa:0:1002#3,4", 16, "ffaa:0:1002", 2, false},
		{"16-ffaa:0:1002", 16, "ffaa:0:1002", 0, false},
		{"16", 0, "", 0, true},
		{"x-1#1", 0, "", 0, true},
		{"16-zz#1", 0, "", 0, true},
		{"16-1#zz", 0, "", 0, true},
	}
	for _, c := range cases {
		p, err := ParsePredicate(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParsePredicate(%q): want error", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParsePredicate(%q): %v", c.in, err)
			continue
		}
		if p.ISD != c.isd || p.AS != addr.MustParseAS(c.as) || len(p.IfIDs) != c.nIfIDs {
			t.Errorf("ParsePredicate(%q) = %+v", c.in, p)
		}
	}
}

func TestPredicateMatchHop(t *testing.T) {
	hop := Hop{IA: addr.MustParseIA("16-ffaa:0:1002"), In: 3, Out: 5}
	match := []string{"0-0", "16-0", "0-ffaa:0:1002", "16-ffaa:0:1002", "16-ffaa:0:1002#3", "16-ffaa:0:1002#5", "16-ffaa:0:1002#3,5"}
	for _, s := range match {
		p, err := ParsePredicate(s)
		if err != nil {
			t.Fatal(err)
		}
		if !p.MatchHop(hop) {
			t.Errorf("%q should match %v", s, hop)
		}
	}
	noMatch := []string{"17-0", "16-ffaa:0:1003", "16-ffaa:0:1002#4", "16-ffaa:0:1002#3,4"}
	for _, s := range noMatch {
		p, err := ParsePredicate(s)
		if err != nil {
			t.Fatal(err)
		}
		if p.MatchHop(hop) {
			t.Errorf("%q should not match %v", s, hop)
		}
	}
}

func TestSequenceRoundTrip(t *testing.T) {
	in := "17-ffaa:1:1#1 17-ffaa:0:1107#3,2 16-ffaa:0:1002#4"
	seq, err := ParseSequence(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 3 {
		t.Fatalf("parsed %d predicates, want 3", len(seq))
	}
	reparsed, err := ParseSequence(seq.String())
	if err != nil {
		t.Fatal(err)
	}
	if reparsed.String() != seq.String() {
		t.Errorf("round trip: %q vs %q", reparsed.String(), seq.String())
	}
}

func TestSequenceEmptyMatchesAll(t *testing.T) {
	seq, err := ParseSequence("   ")
	if err != nil {
		t.Fatal(err)
	}
	p := &Path{Hops: []Hop{{IA: addr.MustParseIA("1-1")}}}
	if !seq.MatchPath(p) {
		t.Error("empty sequence should match any path")
	}
}

func TestSequenceLengthMismatch(t *testing.T) {
	seq, _ := ParseSequence("0-0 0-0")
	p := &Path{Hops: []Hop{{IA: addr.MustParseIA("1-1")}}}
	if seq.MatchPath(p) {
		t.Error("length mismatch should not match")
	}
}

// Property: for every path the combiner produces in the world topology, the
// pinned sequence generated from it matches it and no sibling path to the
// same destination.
func TestPathSequenceIdentifiesPathsUniquely(t *testing.T) {
	topo := topology.DefaultWorld()
	reg := segment.Discover(topo, segment.Options{})
	c := NewCombiner(topo, reg)
	for _, dst := range []addr.IA{topology.AWSIreland, topology.MagdeburgAP, topology.KoreaUniv} {
		paths, err := c.Paths(topology.MyAS, dst)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range paths {
			seq := PathSequence(p)
			if !seq.MatchPath(p) {
				t.Fatalf("sequence %q does not match its own path %v", seq, p)
			}
			if got := FindBySequence(paths, seq); got != p {
				t.Errorf("FindBySequence resolved path %d to a different path", i)
			}
			for j, q := range paths {
				if j != i && seq.MatchPath(q) {
					t.Errorf("sequence of path %d also matches path %d", i, j)
				}
			}
		}
	}
}

// Property: predicate String/Parse round trip.
func TestPredicateRoundTripQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func() bool {
		p := Predicate{
			ISD: addr.ISD(rng.Intn(1 << 16)),
			AS:  addr.AS(rng.Uint64() & uint64(addr.MaxAS)),
		}
		for k := rng.Intn(3); k > 0; k-- {
			p.IfIDs = append(p.IfIDs, addr.IfID(1+rng.Intn(1<<16-1)))
		}
		q, err := ParsePredicate(p.String())
		if err != nil {
			return false
		}
		if q.ISD != p.ISD || q.AS != p.AS || len(q.IfIDs) != len(p.IfIDs) {
			return false
		}
		for i := range p.IfIDs {
			if q.IfIDs[i] != p.IfIDs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(func(uint8) bool { return f() }, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestSequenceGlob(t *testing.T) {
	topo := topology.DefaultWorld()
	reg := segment.Discover(topo, segment.Options{})
	c := NewCombiner(topo, reg)
	paths, err := c.Paths(topology.MyAS, topology.AWSIreland)
	if err != nil {
		t.Fatal(err)
	}

	match := func(s string, p *Path) bool {
		t.Helper()
		seq, err := ParseSequence(s)
		if err != nil {
			t.Fatalf("ParseSequence(%q): %v", s, err)
		}
		return seq.MatchPath(p)
	}

	for _, p := range paths {
		// A leading/trailing glob matches every path between the endpoints.
		if !match("17-ffaa:1:1 * 16-ffaa:0:1002", p) {
			t.Errorf("endpoint glob missed %v", p)
		}
		// Pure glob matches everything.
		if !match("*", p) {
			t.Errorf("bare glob missed %v", p)
		}
		// Glob round trip.
		seq, _ := ParseSequence("17-ffaa:1:1 * 16-ffaa:0:1002")
		re, err := ParseSequence(seq.String())
		if err != nil || re.String() != seq.String() {
			t.Fatalf("glob round trip: %q vs %q (%v)", re.String(), seq.String(), err)
		}
	}

	// "* 16-ffaa:0:1004 *" selects exactly the Ohio paths.
	for _, p := range paths {
		got := match("* 16-ffaa:0:1004#0 *", p)
		want := p.Contains(topology.AWSOhio)
		if got != want {
			t.Errorf("Ohio glob on %v: got %v want %v", p, got, want)
		}
	}

	// ISD-level partial pin: any path via ISD 19.
	for _, p := range paths {
		got := match("* 19-0 *", p)
		want := false
		for _, h := range p.Hops {
			if h.IA.ISD == 19 {
				want = true
			}
		}
		if got != want {
			t.Errorf("ISD glob on %v: got %v want %v", p, got, want)
		}
	}

	// Non-matching pinned middle.
	for _, p := range paths {
		if match("17-ffaa:1:1 99-0 *", p) {
			t.Errorf("bogus middle matched %v", p)
		}
	}

	// Without globs, exact-length semantics are preserved: a prefix does
	// not match.
	short := PathSequence(paths[0])[:3]
	if short.MatchPath(paths[0]) {
		t.Error("prefix without glob matched")
	}
}

func TestSequenceGlobConsumesZeroHops(t *testing.T) {
	topo := topology.DefaultWorld()
	reg := segment.Discover(topo, segment.Options{})
	c := NewCombiner(topo, reg)
	paths, _ := c.Paths(topology.MyAS, topology.AWSIreland)
	p := paths[0]
	// Glob between two adjacent pinned hops must match zero hops.
	s := fmt.Sprintf("%d-%s * %d-%s *", p.Hops[0].IA.ISD, p.Hops[0].IA.AS,
		p.Hops[1].IA.ISD, p.Hops[1].IA.AS)
	seq, err := ParseSequence(s)
	if err != nil {
		t.Fatal(err)
	}
	if !seq.MatchPath(p) {
		t.Errorf("zero-hop glob failed for %v", p)
	}
	// Trailing glob after the full pin.
	full := PathSequence(p).String() + " *"
	seq2, _ := ParseSequence(full)
	if !seq2.MatchPath(p) {
		t.Error("trailing glob after full pin failed")
	}
}

func TestHopString(t *testing.T) {
	src := Hop{IA: addr.MustParseIA("17-ffaa:1:1"), Out: 1}
	mid := Hop{IA: addr.MustParseIA("17-ffaa:0:1107"), In: 3, Out: 2}
	dst := Hop{IA: addr.MustParseIA("16-ffaa:0:1002"), In: 4}
	if src.String() != "17-ffaa:1:1#1" {
		t.Errorf("src hop: %q", src.String())
	}
	if mid.String() != "17-ffaa:0:1107#3,2" {
		t.Errorf("mid hop: %q", mid.String())
	}
	if dst.String() != "16-ffaa:0:1002#4" {
		t.Errorf("dst hop: %q", dst.String())
	}
}

// The fmt renderings Hop.String, Predicate.String, Sequence.String and
// Path.Sequence had before they moved to strconv appends into one buffer.
// PathSequence strings are stored as hop_predicates and hashed into
// fingerprints, so the append forms must stay byte-identical.
func fmtHop(h Hop) string {
	switch {
	case h.In == 0:
		return fmt.Sprintf("%s#%d", h.IA, h.Out)
	case h.Out == 0:
		return fmt.Sprintf("%s#%d", h.IA, h.In)
	default:
		return fmt.Sprintf("%s#%d,%d", h.IA, h.In, h.Out)
	}
}

func fmtPredicate(p Predicate) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d-%s", p.ISD, p.AS)
	if len(p.IfIDs) > 0 {
		b.WriteByte('#')
		for i, ifid := range p.IfIDs {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", ifid)
		}
	}
	return b.String()
}

func TestRenderingsMatchFmt(t *testing.T) {
	ias := []addr.IA{
		{},                                 // full wildcard
		{ISD: 16},                          // ISD wildcard predicate "16-0"
		{ISD: 17, AS: 64512},               // decimal AS
		{ISD: 17, AS: 0xffaa_0001_0001},    // colon AS
		{ISD: 19, AS: 0xffaa_0000_1303},    // colon AS, zero middle group
		{ISD: 65535, AS: 0xffff_ffff_ffff}, // widest
	}
	ifs := []addr.IfID{0, 1, 9, 10, 41, 65535}

	var hops []Hop
	for _, ia := range ias {
		for _, in := range ifs {
			for _, out := range ifs {
				h := Hop{IA: ia, In: in, Out: out}
				if !ia.Zero() { // "0-0#65535" is the glob marker, not a hop
					hops = append(hops, h)
				}
				if got, want := h.String(), fmtHop(h); got != want {
					t.Errorf("%#v.String() = %q, fmt renders %q", h, got, want)
				}
			}
		}
		for _, ifids := range [][]addr.IfID{nil, {}, {3}, {3, 2}, {65535, 1, 10}} {
			p := Predicate{ISD: ia.ISD, AS: ia.AS, IfIDs: ifids}
			if got, want := p.String(), fmtPredicate(p); got != want {
				t.Errorf("%#v.String() = %q, fmt renders %q", p, got, want)
			}
		}
	}

	// Whole paths: Sequence, the fingerprint's pre-image, and the pinned
	// predicate sequence, against per-hop fmt renderings joined by spaces.
	for n := 0; n <= len(hops); n += 7 {
		p := &Path{Hops: hops[:n]}
		hopParts := make([]string, n)
		predParts := make([]string, n)
		seq := PathSequence(p)
		for i, h := range p.Hops {
			hopParts[i] = fmtHop(h)
			predParts[i] = fmtPredicate(seq[i])
		}
		if got, want := p.Sequence(), strings.Join(hopParts, " "); got != want {
			t.Fatalf("%d hops: Sequence() = %q, fmt renders %q", n, got, want)
		}
		sum := sha256.Sum256([]byte(strings.Join(hopParts, " ")))
		if got, want := p.Fingerprint(), hex.EncodeToString(sum[:8]); got != want {
			t.Fatalf("%d hops: Fingerprint() = %s, fmt pre-image hashes to %s", n, got, want)
		}
		if got, want := seq.String(), strings.Join(predParts, " "); got != want {
			t.Fatalf("%d hops: PathSequence.String() = %q, fmt renders %q", n, got, want)
		}
		// The append forms the collect stage compares stored documents
		// with: same bytes, after whatever the buffer already holds.
		if got, want := string(AppendPathSequence([]byte("x "), p)), "x "+seq.String(); got != want {
			t.Fatalf("%d hops: AppendPathSequence = %q, PathSequence.String() = %q", n, got, want)
		}
		if got, want := string(p.AppendFingerprint([]byte("x "))), "x "+p.Fingerprint(); got != want {
			t.Fatalf("%d hops: AppendFingerprint = %q, Fingerprint() = %q", n, got, want)
		}
	}

	// Glob tokens render as "*" between predicates.
	seq := Sequence{{ISD: 17, AS: 0xffaa_0001_0001, IfIDs: []addr.IfID{1}}, globToken(), {ISD: 19}, globToken()}
	if got, want := seq.String(), "17-ffaa:1:1#1 * 19-0 *"; got != want {
		t.Errorf("glob sequence renders %q, want %q", got, want)
	}
}
