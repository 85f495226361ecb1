package pathmgr

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/upin/scionpath/internal/addr"
	"github.com/upin/scionpath/internal/segment"
	"github.com/upin/scionpath/internal/topology"
)

func worldCombiner(t testing.TB) *Combiner {
	t.Helper()
	topo := topology.DefaultWorld()
	reg := segment.Discover(topo, segment.Options{})
	return NewCombiner(topo, reg)
}

func TestPathsToIreland(t *testing.T) {
	c := worldCombiner(t)
	paths, err := c.Paths(topology.MyAS, topology.AWSIreland)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 6 {
		t.Fatalf("only %d paths to Ireland, want a rich path set", len(paths))
	}
	// Paper Fig 5: the shortest paths to Ireland have 6 hops.
	if got := paths[0].NumHops(); got != 6 {
		t.Errorf("min hops to Ireland = %d, want 6", got)
	}
	// Sorted by hop count.
	for i := 1; i < len(paths); i++ {
		if paths[i].NumHops() < paths[i-1].NumHops() {
			t.Fatalf("paths not sorted by hop count at %d", i)
		}
	}
	// Long-distance detours exist: some path traverses Ohio, some Singapore
	// (the second-last hop of the paper's paths 10/15 and 9/14).
	var viaOhio, viaSingapore bool
	for _, p := range paths {
		if p.Contains(topology.AWSOhio) {
			viaOhio = true
			if p.Hops[len(p.Hops)-2].IA != topology.AWSOhio {
				t.Errorf("Ohio path does not have Ohio as second-last hop: %v", p)
			}
		}
		if p.Contains(topology.AWSSingapore) {
			viaSingapore = true
		}
	}
	if !viaOhio || !viaSingapore {
		t.Errorf("missing detour paths: viaOhio=%v viaSingapore=%v", viaOhio, viaSingapore)
	}
}

func TestPathsNoLoopsNoDuplicates(t *testing.T) {
	c := worldCombiner(t)
	for _, dst := range c.topo.Servers() {
		paths, err := c.Paths(topology.MyAS, dst.IA)
		if err != nil {
			t.Fatalf("paths to %s: %v", dst.IA, err)
		}
		seen := map[string]bool{}
		for _, p := range paths {
			if p.HasLoop() {
				t.Errorf("loop in path to %s: %v", dst.IA, p)
			}
			fp := p.Fingerprint()
			if seen[fp] {
				t.Errorf("duplicate path to %s: %v", dst.IA, p)
			}
			seen[fp] = true
			if p.Hops[0].IA != topology.MyAS || p.Hops[len(p.Hops)-1].IA != dst.IA {
				t.Errorf("path endpoints wrong: %v", p)
			}
			if p.Hops[0].In != 0 || p.Hops[len(p.Hops)-1].Out != 0 {
				t.Errorf("terminal interfaces not zero: %v", p)
			}
			if p.MTU <= 0 {
				t.Errorf("path MTU not annotated: %v", p)
			}
		}
	}
}

func TestPathsHopContiguity(t *testing.T) {
	c := worldCombiner(t)
	paths, err := c.Paths(topology.MyAS, topology.MagdeburgAP)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		for i := 0; i+1 < len(p.Hops); i++ {
			l := c.topo.LinkBetween(p.Hops[i].IA, p.Hops[i+1].IA)
			if l == nil {
				t.Fatalf("path %v: no link between %s and %s", p, p.Hops[i].IA, p.Hops[i+1].IA)
			}
			wantOut, wantIn := l.AIf, l.BIf
			if l.A != p.Hops[i].IA {
				wantOut, wantIn = l.BIf, l.AIf
			}
			if p.Hops[i].Out != wantOut || p.Hops[i+1].In != wantIn {
				t.Errorf("path %v hop %d: interfaces %d>%d, want %d>%d",
					p, i, p.Hops[i].Out, p.Hops[i+1].In, wantOut, wantIn)
			}
		}
	}
}

func TestShortcutIntraISD(t *testing.T) {
	c := worldCombiner(t)
	// ETHZ (17-ffaa:0:1102) is on MY_AS's up path; the common-AS shortcut
	// must yield the 3-hop path MY_AS -> ETHZ-AP -> ETHZ.
	paths, err := c.Paths(topology.MyAS, addr.MustParseIA("17-ffaa:0:1102"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no paths to ETHZ")
	}
	if got := paths[0].NumHops(); got != 3 {
		t.Errorf("min hops to ETHZ = %d, want 3 (shortcut)", got)
	}
}

func TestReachabilityMatchesPaper(t *testing.T) {
	c := worldCombiner(t)
	servers := c.topo.Servers()
	if len(servers) != 21 {
		t.Fatalf("%d servers, want 21", len(servers))
	}
	total, within6 := 0, 0
	count := 0
	for _, s := range servers {
		min, ok := c.MinHops(topology.MyAS, s.IA)
		if !ok {
			t.Fatalf("server %s unreachable", s.IA)
		}
		total += min
		count++
		if min <= 6 {
			within6++
		}
	}
	avg := float64(total) / float64(count)
	// Paper: average path length 5.66 hops; we accept the same ballpark.
	if avg < 5.2 || avg > 6.2 {
		t.Errorf("average min path length %.2f, want within [5.2, 6.2] (paper: 5.66)", avg)
	}
	frac := float64(within6) / float64(count)
	// Paper: "about 70%% of paths can be reached within 6 hops".
	if frac < 0.55 || frac > 0.9 {
		t.Errorf("fraction reachable within 6 hops %.2f, want within [0.55, 0.90] (paper: ~0.70)", frac)
	}
}

func TestPathsErrors(t *testing.T) {
	c := worldCombiner(t)
	if _, err := c.Paths(topology.MyAS, topology.MyAS); err == nil {
		t.Error("same src/dst accepted")
	}
	if _, err := c.Paths(topology.MyAS, addr.MustParseIA("99-ff00:0:1")); err == nil {
		t.Error("unknown destination accepted")
	}
	if _, err := c.Paths(addr.MustParseIA("99-ff00:0:1"), topology.MyAS); err == nil {
		t.Error("unknown source accepted")
	}
}

func TestISDSet(t *testing.T) {
	c := worldCombiner(t)
	paths, err := c.Paths(topology.MyAS, topology.AWSIreland)
	if err != nil {
		t.Fatal(err)
	}
	sawDirect, sawViaEU := false, false
	for _, p := range paths {
		key := p.ISDSetKey()
		switch key {
		case "16-17":
			sawDirect = true
		case "16-17-19":
			sawViaEU = true
		}
		isds := p.ISDSet()
		for i := 1; i < len(isds); i++ {
			if isds[i] <= isds[i-1] {
				t.Errorf("ISD set not strictly sorted: %v", isds)
			}
		}
	}
	// Fig 6 groups Ireland paths into ISD sets {16,17} and {16,17,19}.
	if !sawDirect || !sawViaEU {
		t.Errorf("expected ISD sets 16-17 and 16-17-19; direct=%v viaEU=%v", sawDirect, sawViaEU)
	}
}

// TestAppendISDSetMatchesMapAndSort pins the insertion-sorted ISD set
// against the map-and-sort definition on random hop lists, including the
// append-after-existing-content form the collect stage uses.
func TestAppendISDSetMatchesMapAndSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		p := &Path{Hops: make([]Hop, rng.Intn(12))}
		seen := map[addr.ISD]bool{}
		for i := range p.Hops {
			p.Hops[i].IA.ISD = addr.ISD(1 + rng.Intn(6))
			seen[p.Hops[i].IA.ISD] = true
		}
		want := make([]addr.ISD, 0, len(seen))
		for isd := range seen {
			want = append(want, isd)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if got := p.ISDSet(); got == nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("hops %v: ISDSet() = %v, want %v", p.Hops, got, want)
		}
		prefix := []addr.ISD{9, 3}
		if got := p.AppendISDSet(prefix); !reflect.DeepEqual(got, append([]addr.ISD{9, 3}, want...)) {
			t.Fatalf("hops %v: AppendISDSet after [9 3] = %v, want the prefix then %v", p.Hops, got, want)
		}
	}
}

func TestPathStringAndFingerprint(t *testing.T) {
	c := worldCombiner(t)
	paths, _ := c.Paths(topology.MyAS, topology.AWSIreland)
	p := paths[0]
	if p.String() == "" || p.Fingerprint() == "" {
		t.Error("empty rendering")
	}
	if len(p.Fingerprint()) != 16 {
		t.Errorf("fingerprint length %d, want 16 hex chars", len(p.Fingerprint()))
	}
	q := *p
	q.Hops = append([]Hop{}, p.Hops...)
	q.Hops[1].Out++ // different interface => different fingerprint
	if q.Fingerprint() == p.Fingerprint() {
		t.Error("fingerprint ignores interfaces")
	}
}

func TestMinLatencyOrdersGeography(t *testing.T) {
	c := worldCombiner(t)
	paths, _ := c.Paths(topology.MyAS, topology.AWSIreland)
	var direct, viaSingapore *Path
	for _, p := range paths {
		if p.ISDSetKey() == "16-17" && p.NumHops() == 6 && direct == nil {
			direct = p
		}
		if p.Contains(topology.AWSSingapore) && viaSingapore == nil {
			viaSingapore = p
		}
	}
	if direct == nil || viaSingapore == nil {
		t.Fatal("expected both a direct and a Singapore-detour path")
	}
	if direct.MinLatency >= viaSingapore.MinLatency {
		t.Errorf("direct MinLatency %v >= Singapore detour %v", direct.MinLatency, viaSingapore.MinLatency)
	}
}
