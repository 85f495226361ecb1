package simnet

import (
	"testing"
	"time"

	"github.com/upin/scionpath/internal/pathmgr"
	"github.com/upin/scionpath/internal/topology"
)

// accessLink resolves the access link between ETHZ-AP and MY_AS: its
// steps in both travel directions.
func accessLink(net *Network) (up, down *routeHop) {
	r := net.resolve([]pathmgr.Hop{{IA: topology.ETHZAP}, {IA: topology.MyAS}})
	return &r.fwd[0], &r.rev[0]
}

// The cross-traffic utilisation process must stay within its clamp bounds
// and revert toward the configured mean over long horizons.
func TestUtilizationProcessBoundsAndReversion(t *testing.T) {
	topo := topology.DefaultWorld()
	net := New(topo, Options{Seed: 90, UtilMean: 0.30, UtilSigma: 0.08})
	h, _ := accessLink(net)
	if h.link == nil {
		t.Fatal("access link missing")
	}
	var sum float64
	n := 0
	for i := 0; i < 2000; i++ {
		u := net.utilLocked(h, time.Duration(i)*time.Second)
		if u < 0.02 || u > 0.75 {
			t.Fatalf("utilisation %v escaped the clamp", u)
		}
		sum += u
		n++
	}
	mean := sum / float64(n)
	if mean < 0.15 || mean > 0.45 {
		t.Errorf("long-run mean utilisation %.3f far from configured 0.30", mean)
	}
}

// Two directions of the same link evolve independently.
func TestUtilizationPerDirection(t *testing.T) {
	topo := topology.DefaultWorld()
	net := New(topo, Options{Seed: 91})
	up, down := accessLink(net)
	if up.fwd == down.fwd {
		t.Fatal("the two steps cross the link in the same direction")
	}
	same := 0
	for i := 0; i < 50; i++ {
		at := time.Duration(i) * 10 * time.Second
		if net.utilLocked(up, at) == net.utilLocked(down, at) {
			same++
		}
	}
	if same > 5 {
		t.Errorf("forward/reverse utilisation identical %d/50 times", same)
	}
}

// The process is deterministic per seed.
func TestUtilizationDeterministic(t *testing.T) {
	topo := topology.DefaultWorld()
	a := New(topo, Options{Seed: 92})
	b := New(topo, Options{Seed: 92})
	ha, _ := accessLink(a)
	hb, _ := accessLink(b)
	for i := 0; i < 100; i++ {
		at := time.Duration(i) * time.Second
		if a.utilLocked(ha, at) != b.utilLocked(hb, at) {
			t.Fatal("utilisation differs across equal seeds")
		}
	}
}
