package simnet

import (
	"testing"
	"time"

	"github.com/upin/scionpath/internal/topology"
)

// A path is resolved once: probes, partial probes and bandwidth tests of
// the same hop sequence reuse the memoised route, another path replaces
// it, and a fork starts without one (its steps would point into the
// parent's util map).
func TestRouteMemoisedPerHopSequence(t *testing.T) {
	_, c, net := testWorld(t, 5)
	paths, err := c.Paths(topology.MyAS, topology.AWSIreland)
	if err != nil || len(paths) < 2 {
		t.Fatalf("paths: %v (%d)", err, len(paths))
	}
	p, q := paths[0], paths[1]
	net.Probe(p, 8, 0)
	r := net.route
	if r == nil || !r.resolves(p.Hops) {
		t.Fatal("Probe did not memoise the path's route")
	}
	for k := range p.Hops {
		if _, err := net.ProbePartial(p, k, 8, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := net.BandwidthTest(p, FlowSpec{Duration: time.Second, PacketBytes: 64, TargetBps: 1e6, Reverse: true}); err != nil {
		t.Fatal(err)
	}
	if net.route != r {
		t.Fatal("the same hop sequence was resolved again")
	}
	for i := range r.fwd[:len(r.fwd)-1] {
		if r.fwd[i].util == nil || r.rev[i].util == nil {
			t.Fatalf("step %d's utilisation slot is still empty after traversals", i)
		}
	}
	net.Probe(q, 8, 0)
	if net.route == r || !net.route.resolves(q.Hops) {
		t.Fatal("another path did not replace the memoised route")
	}
	if f := net.Fork(6); f.route != nil {
		t.Fatal("Fork copied the memoised route")
	}
}

// On an already resolved route a probe, a partial probe and a bandwidth
// test allocate nothing: no hop list is reversed and no step is looked up.
func TestRouteWalksAllocateNothing(t *testing.T) {
	_, c, net := testWorld(t, 7)
	paths, err := c.Paths(topology.MyAS, topology.AWSIreland)
	if err != nil {
		t.Fatal(err)
	}
	p := paths[0]
	k := len(p.Hops) / 2
	bwtest := func(reverse bool) func() {
		spec := FlowSpec{Duration: 500 * time.Millisecond, PacketBytes: p.MTU, TargetBps: 12e6, Reverse: reverse}
		return func() {
			if _, err := net.BandwidthTest(p, spec); err != nil {
				t.Fatal(err)
			}
		}
	}
	cases := map[string]func(){
		"Probe": func() { net.Probe(p, 8, 0) },
		"ProbePartial": func() {
			if _, err := net.ProbePartial(p, k, 8, 0); err != nil {
				t.Fatal(err)
			}
		},
		"BandwidthTest":         bwtest(false),
		"BandwidthTest/reverse": bwtest(true),
	}
	for name, fn := range cases {
		fn() // resolve the route and fill its utilisation slots
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s allocates %v times per call on a resolved route, want 0", name, allocs)
		}
	}
}
