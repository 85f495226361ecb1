package simnet

import (
	"fmt"
	"time"

	"github.com/upin/scionpath/internal/addr"
	"github.com/upin/scionpath/internal/pathmgr"
	"github.com/upin/scionpath/internal/topology"
)

// routeHop is one step of a resolved route in travel direction: the AS a
// packet is at and the link it leaves on toward the next AS. Walks never
// use the last step's link, so a prefix of a route is a route too.
type routeHop struct {
	ia, next addr.IA
	as       *topology.AS   // nil when the topology has no AS ia
	link     *topology.Link // nil on the last hop, or when no link joins ia and next
	fwd      bool           // the link is traversed A->B
	capacity float64        // bps in the traversal direction
	delay    time.Duration  // Topology.Delay(link)
	// util is this link direction's entry in the network's util map, set on
	// the step's first traversal.
	util *utilState
}

// linkErr is the error of a walk that needs the step's missing link.
func (h *routeHop) linkErr() error {
	return fmt.Errorf("simnet: no link %s--%s", h.ia, h.next)
}

// route is a hop list resolved against the topology once, in both
// directions: fwd[i] is the step at hop i, rev[j] the step at hop
// len-1-j on the way back. It is a function of the hop IA sequence and the
// immutable topology; the util map stays the owner of the cross-traffic
// state, which the steps only point into.
type route struct {
	fwd, rev []routeHop
}

// resolve builds the route of a hop list: the only place the simulator
// looks up ASes and links.
func (n *Network) resolve(hops []pathmgr.Hop) *route {
	steps := make([]routeHop, 2*len(hops))
	r := &route{fwd: steps[:len(hops):len(hops)], rev: steps[len(hops):]}
	last := len(hops) - 1
	for i, h := range hops {
		as := n.topo.AS(h.IA)
		r.fwd[i] = routeHop{ia: h.IA, as: as}
		r.rev[last-i] = routeHop{ia: h.IA, as: as}
	}
	for i := 0; i < last; i++ {
		out, back := &r.fwd[i], &r.rev[last-i-1]
		out.next, back.next = back.ia, out.ia
		// LinkBetween finds the same link from either end.
		if l := n.topo.LinkBetween(out.ia, back.ia); l != nil {
			delay := n.topo.Delay(l)
			out.setLink(l, delay)
			back.setLink(l, delay)
		}
	}
	return r
}

// setLink makes l, whose propagation delay is delay, the link the step
// leaves on.
func (h *routeHop) setLink(l *topology.Link, delay time.Duration) {
	h.link, h.fwd, h.delay = l, l.A == h.ia, delay
	h.capacity = l.CapacityBtoA
	if h.fwd {
		h.capacity = l.CapacityAtoB
	}
}

// routeLocked returns the route of hops, reusing the memoised one while
// the hop IA sequence is unchanged: a cell's pings and bandwidth tests and
// a traceroute's prefixes all resolve their path once. Callers hold n.mu.
func (n *Network) routeLocked(hops []pathmgr.Hop) *route {
	if r := n.route; r != nil && r.resolves(hops) {
		return r
	}
	n.route = n.resolve(hops)
	return n.route
}

// resolves reports whether r is the route of hops.
func (r *route) resolves(hops []pathmgr.Hop) bool {
	if len(r.fwd) != len(hops) {
		return false
	}
	for i := range hops {
		if r.fwd[i].ia != hops[i].IA {
			return false
		}
	}
	return true
}
