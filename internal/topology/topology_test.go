package topology

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/upin/scionpath/internal/addr"
	"github.com/upin/scionpath/internal/geo"
)

func testAS(ia string, typ ASType) *AS {
	return &AS{
		IA:   addr.MustParseIA(ia),
		Name: ia,
		Type: typ,
		Site: geo.Zurich,
	}
}

func TestAddASDuplicate(t *testing.T) {
	topo := New()
	if err := topo.AddAS(testAS("1-ff00:0:1", Core)); err != nil {
		t.Fatal(err)
	}
	if err := topo.AddAS(testAS("1-ff00:0:1", Core)); err == nil {
		t.Error("duplicate AS accepted")
	}
}

func TestAddASInvalid(t *testing.T) {
	topo := New()
	if err := topo.AddAS(nil); err == nil {
		t.Error("nil AS accepted")
	}
	if err := topo.AddAS(&AS{Name: "zero"}); err == nil {
		t.Error("zero IA accepted")
	}
	bad := testAS("1-ff00:0:1", Core)
	bad.Site.Coords = geo.Coordinates{Lat: 999}
	if err := topo.AddAS(bad); err == nil {
		t.Error("invalid coords accepted")
	}
}

func TestConnectValidation(t *testing.T) {
	topo := New()
	topo.MustAddAS(testAS("1-ff00:0:1", Core))
	topo.MustAddAS(testAS("1-ff00:0:2", NonCore))
	topo.MustAddAS(testAS("1-ff00:0:3", Core))

	if _, err := topo.Connect(CoreLink, addr.MustParseIA("1-ff00:0:1"), addr.MustParseIA("1-ff00:0:2"), LinkSpec{}); err == nil {
		t.Error("core link to non-core accepted")
	}
	if _, err := topo.Connect(ParentChild, addr.MustParseIA("1-ff00:0:1"), addr.MustParseIA("1-ff00:0:3"), LinkSpec{}); err == nil {
		t.Error("core AS as child accepted")
	}
	if _, err := topo.Connect(CoreLink, addr.MustParseIA("1-ff00:0:1"), addr.MustParseIA("1-ff00:0:1"), LinkSpec{}); err == nil {
		t.Error("self link accepted")
	}
	if _, err := topo.Connect(CoreLink, addr.MustParseIA("1-ff00:0:1"), addr.MustParseIA("9-ff00:0:9"), LinkSpec{}); err == nil {
		t.Error("unknown endpoint accepted")
	}
	if _, err := topo.Connect(ParentChild, addr.MustParseIA("1-ff00:0:1"), addr.MustParseIA("1-ff00:0:2"), LinkSpec{BaseLoss: 1.5}); err == nil {
		t.Error("out-of-range loss accepted")
	}
}

func TestConnectAssignsDistinctInterfaces(t *testing.T) {
	topo := New()
	topo.MustAddAS(testAS("1-ff00:0:1", Core))
	topo.MustAddAS(testAS("1-ff00:0:2", NonCore))
	topo.MustAddAS(testAS("1-ff00:0:3", NonCore))
	a := addr.MustParseIA("1-ff00:0:1")
	l1 := topo.MustConnect(ParentChild, a, addr.MustParseIA("1-ff00:0:2"), LinkSpec{})
	l2 := topo.MustConnect(ParentChild, a, addr.MustParseIA("1-ff00:0:3"), LinkSpec{})
	if l1.AIf == l2.AIf {
		t.Errorf("interface ids not distinct: %d vs %d", l1.AIf, l2.AIf)
	}
	if l1.AIf == 0 || l1.BIf == 0 {
		t.Error("interface id 0 assigned (reserved for wildcard)")
	}
}

func TestConnectDefaults(t *testing.T) {
	topo := New()
	topo.MustAddAS(testAS("1-ff00:0:1", Core))
	topo.MustAddAS(testAS("1-ff00:0:2", NonCore))
	l := topo.MustConnect(ParentChild, addr.MustParseIA("1-ff00:0:1"), addr.MustParseIA("1-ff00:0:2"), LinkSpec{})
	if l.CapacityAtoB != DefaultCapacity || l.CapacityBtoA != DefaultCapacity {
		t.Errorf("default capacity not applied: %v/%v", l.CapacityAtoB, l.CapacityBtoA)
	}
	if l.QueueBytes != DefaultQueueBytes || l.MTU != DefaultMTU {
		t.Errorf("defaults not applied: queue=%d mtu=%d", l.QueueBytes, l.MTU)
	}
}

func TestLinkBetween(t *testing.T) {
	topo := New()
	topo.MustAddAS(testAS("1-ff00:0:1", Core))
	topo.MustAddAS(testAS("1-ff00:0:2", NonCore))
	a, b := addr.MustParseIA("1-ff00:0:1"), addr.MustParseIA("1-ff00:0:2")
	l := topo.MustConnect(ParentChild, a, b, LinkSpec{})
	if topo.LinkBetween(a, b) != l || topo.LinkBetween(b, a) != l {
		t.Error("LinkBetween did not find the link in both orientations")
	}
	if topo.LinkBetween(a, addr.MustParseIA("9-ff00:0:9")) != nil {
		t.Error("LinkBetween found a phantom link")
	}
}

func TestValidateDetectsProblems(t *testing.T) {
	// Empty topology.
	if err := New().Validate(); err == nil {
		t.Error("empty topology validated")
	}
	// ISD without core.
	topo := New()
	topo.MustAddAS(testAS("1-ff00:0:1", NonCore))
	if err := topo.Validate(); err == nil || !strings.Contains(err.Error(), "no core") {
		t.Errorf("want no-core error, got %v", err)
	}
	// Orphan non-core.
	topo2 := New()
	topo2.MustAddAS(testAS("1-ff00:0:1", Core))
	topo2.MustAddAS(testAS("1-ff00:0:2", NonCore))
	if err := topo2.Validate(); err == nil || !strings.Contains(err.Error(), "no parent") {
		t.Errorf("want orphan error, got %v", err)
	}
	// Disconnected graph.
	topo3 := New()
	topo3.MustAddAS(testAS("1-ff00:0:1", Core))
	topo3.MustAddAS(testAS("2-ff00:0:2", Core))
	if err := topo3.Validate(); err == nil || !strings.Contains(err.Error(), "not connected") {
		t.Errorf("want connectivity error, got %v", err)
	}
}

func TestASTypeString(t *testing.T) {
	for typ, want := range map[ASType]string{
		Core: "core", NonCore: "non-core", AttachmentPoint: "attachment-point",
		UserAS: "user", ASType(42): "ASType(42)",
	} {
		if got := typ.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(typ), got, want)
		}
	}
	if CoreLink.String() != "core" || ParentChild.String() != "parent-child" {
		t.Error("LinkType strings wrong")
	}
}

// --- DefaultWorld structural checks (mirrors §3.1/§6 facts) ---

func TestDefaultWorldValidates(t *testing.T) {
	w := DefaultWorld()
	if err := w.Validate(); err != nil {
		t.Fatalf("DefaultWorld invalid: %v", err)
	}
}

func TestDefaultWorldSize(t *testing.T) {
	w := DefaultWorld()
	// Paper: "The SCIONLAB network infrastructure is based on 35 ASes", plus
	// the experimenters' own AS.
	if got := len(w.ASes()); got != 36 {
		t.Errorf("world has %d ASes, want 36 (35 + MY_AS)", got)
	}
}

func TestDefaultWorldServers(t *testing.T) {
	w := DefaultWorld()
	servers := w.Servers()
	// Paper: 21 fully testable destinations.
	if len(servers) != 21 {
		t.Fatalf("world has %d servers, want 21", len(servers))
	}
	// The multi-server AS appears more than once with distinct addresses.
	count := map[addr.IA]int{}
	locals := map[string]bool{}
	for _, s := range servers {
		count[s.IA]++
		key := s.IA.String() + "," + s.Local
		if locals[key] {
			t.Errorf("duplicate server address %s", key)
		}
		locals[key] = true
	}
	if count[MagdeburgAP] != 2 {
		t.Errorf("Magdeburg AP houses %d servers, want 2", count[MagdeburgAP])
	}
}

func TestDefaultWorldNamedEntities(t *testing.T) {
	w := DefaultWorld()
	checks := []struct {
		ia      addr.IA
		typ     ASType
		country string
	}{
		{MyAS, UserAS, "Switzerland"},
		{ETHZAP, AttachmentPoint, "Switzerland"},
		{AWSIreland, NonCore, "Ireland"},
		{AWSVirginia, NonCore, "United States"},
		{AWSOhio, NonCore, "United States"},
		{AWSSingapore, NonCore, "Singapore"},
		{MagdeburgAP, AttachmentPoint, "Germany"},
		{KoreaUniv, NonCore, "South Korea"},
	}
	for _, c := range checks {
		as := w.AS(c.ia)
		if as == nil {
			t.Errorf("AS %s missing", c.ia)
			continue
		}
		if as.Type != c.typ {
			t.Errorf("AS %s type %v, want %v", c.ia, as.Type, c.typ)
		}
		if as.Site.Country != c.country {
			t.Errorf("AS %s country %q, want %q", c.ia, as.Site.Country, c.country)
		}
	}
}

func TestDefaultWorldJitteryTransits(t *testing.T) {
	w := DefaultWorld()
	// §6.1: ASes 16-ffaa:0:1007 and 16-ffaa:0:1004 introduce wide jitter.
	for _, ia := range []addr.IA{AWSOhio, AWSSingapore} {
		if w.AS(ia).JitterScale < 2*time.Millisecond {
			t.Errorf("AS %s jitter %v, want >= 2ms", ia, w.AS(ia).JitterScale)
		}
	}
	// Ordinary ASes stay well below.
	if w.AS(AWSIreland).JitterScale > time.Millisecond {
		t.Errorf("Ireland jitter %v unexpectedly high", w.AS(AWSIreland).JitterScale)
	}
}

func TestDefaultWorldAccessAsymmetry(t *testing.T) {
	w := DefaultWorld()
	l := w.LinkBetween(ETHZAP, MyAS)
	if l == nil {
		t.Fatal("MY_AS not attached to ETHZ-AP")
	}
	// A is the parent (AP); downstream (A->B) must exceed upstream (B->A),
	// reproducing "the internet's inherent asymmetry" (§6.2).
	if l.A != ETHZAP {
		t.Fatalf("attachment link parent is %s, want ETHZ-AP", l.A)
	}
	if l.CapacityAtoB <= l.CapacityBtoA {
		t.Errorf("access link not asymmetric: down=%v up=%v", l.CapacityAtoB, l.CapacityBtoA)
	}
}

func TestDefaultWorldFocusDestinations(t *testing.T) {
	w := DefaultWorld()
	countries := map[string]bool{}
	for _, ia := range FocusDestinations() {
		as := w.AS(ia)
		if as == nil {
			t.Fatalf("focus destination %s missing", ia)
		}
		if as.NumServers < 1 {
			t.Errorf("focus destination %s has no server", ia)
		}
		countries[as.Site.Country] = true
	}
	// Paper §6: Germany, Ireland, North Virginia (US), Singapore, Korea.
	for _, c := range []string{"Germany", "Ireland", "United States", "Singapore", "South Korea"} {
		if !countries[c] {
			t.Errorf("focus set misses country %s", c)
		}
	}
}

func TestDefaultWorldISDs(t *testing.T) {
	w := DefaultWorld()
	isds := w.ISDs()
	if len(isds) < 8 {
		t.Errorf("only %d ISDs, want a rich multi-ISD world", len(isds))
	}
	for _, isd := range isds {
		if len(w.CoreASes(isd)) == 0 {
			t.Errorf("ISD %d has no core", isd)
		}
	}
	if len(w.CoreASes(0)) < 8 {
		t.Errorf("want >= 8 core ASes world-wide, got %d", len(w.CoreASes(0)))
	}
}

func TestDelayUsesGeography(t *testing.T) {
	w := DefaultWorld()
	intra := w.LinkBetween(addr.MustParseIA("17-ffaa:0:1101"), addr.MustParseIA("17-ffaa:0:1102"))
	transo := w.LinkBetween(addr.MustParseIA("18-ffaa:0:1201"), addr.MustParseIA("21-ffaa:0:1501"))
	if intra == nil || transo == nil {
		t.Fatal("expected links missing")
	}
	if w.Delay(intra) >= w.Delay(transo) {
		t.Errorf("intra-city delay %v >= transpacific %v", w.Delay(intra), w.Delay(transo))
	}
	if w.Delay(transo) < 30*time.Millisecond {
		t.Errorf("transpacific delay %v implausibly low", w.Delay(transo))
	}
}

// TestDelayCachedMatchesGeography pins that the delay Connect caches on a
// link is bit-identical to computing it from the two sites on demand — for
// every link of the default world, of a generated one, of a JSON round
// trip, and for user ASes attached after the fact (one at the attachment point's
// site, one at its own).
func TestDelayCachedMatchesGeography(t *testing.T) {
	check := func(name string, w *Topology) {
		t.Helper()
		if len(w.Links()) == 0 {
			t.Fatalf("%s: no links", name)
		}
		for _, l := range w.Links() {
			want := geo.PropagationDelay(w.AS(l.A).Site.Coords, w.AS(l.B).Site.Coords)
			if got := w.Delay(l); got != want {
				t.Errorf("%s: link %s--%s: cached delay %v, geography says %v", name, l.A, l.B, got, want)
			}
		}
	}
	w := DefaultWorld()
	check("default world", w)
	if _, err := w.AttachUserAS(UserASSpec{IA: addr.MustParseIA("19-ffaa:1:5"), AP: MagdeburgAP}); err != nil {
		t.Fatal(err)
	}
	far, err := w.AttachUserAS(UserASSpec{IA: addr.MustParseIA("17-ffaa:1:6"), AP: ETHZAP, Site: geo.Singapore})
	if err != nil {
		t.Fatal(err)
	}
	if w.Delay(far) < 10*time.Millisecond {
		t.Errorf("Zurich--Singapore access link delay %v implausibly low", w.Delay(far))
	}
	check("default world with attached user ASes", w)

	g, err := Generate(GenerateSpec{Seed: 7, ISDs: 4, CoresPerISD: 2, NonCorePerISD: 12})
	if err != nil {
		t.Fatal(err)
	}
	check("generated world", g)

	var buf bytes.Buffer
	if err := w.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	check("JSON round trip", back)
}
