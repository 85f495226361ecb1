package simnet

import (
	"fmt"
	"time"

	"github.com/upin/scionpath/internal/pathmgr"
)

// ProbeResult is the outcome of one round-trip probe (an SCMP echo).
type ProbeResult struct {
	RTT     time.Duration
	Dropped bool
	// DropHop is the index within the forward (or, offset by path length,
	// return) hop list where the packet died.
	DropHop int
}

// Probe sends one echo-sized packet along the path and back, starting at
// the current simulated time plus offset. It does not advance the clock;
// callers (the SCMP layer) own pacing.
func (n *Network) Probe(p *pathmgr.Path, payloadBytes int, offset time.Duration) ProbeResult {
	n.mu.Lock()
	defer n.mu.Unlock()
	r := n.routeLocked(p.Hops)
	return n.probeLocked(r.fwd, r.rev, payloadBytes, offset)
}

// ProbePartial sends a probe to hop index k of the path and back, the
// primitive behind SCMP traceroute. It walks a prefix of the whole path's
// route, so probing every hop in turn resolves the path once.
func (n *Network) ProbePartial(p *pathmgr.Path, k int, payloadBytes int, offset time.Duration) (ProbeResult, error) {
	if k < 0 || k >= len(p.Hops) {
		return ProbeResult{}, fmt.Errorf("simnet: hop index %d out of range [0,%d)", k, len(p.Hops))
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	r := n.routeLocked(p.Hops)
	return n.probeLocked(r.fwd[:k+1], r.rev[len(p.Hops)-1-k:], payloadBytes, offset), nil
}

// probeLocked sends a probe out along fwd and back along rev, the same
// hops in reverse. Callers hold n.mu.
func (n *Network) probeLocked(fwd, rev []routeHop, payloadBytes int, offset time.Duration) ProbeResult {
	wire := payloadBytes + n.opts.HeaderBytes
	start := n.engine.Now() + offset
	out := n.traverseLocked(fwd, wire, start)
	if out.dropped {
		return ProbeResult{Dropped: true, DropHop: out.dropHop}
	}
	back := n.traverseLocked(rev, wire, start+out.delay)
	if back.dropped {
		return ProbeResult{Dropped: true, DropHop: len(fwd) + back.dropHop}
	}
	return ProbeResult{RTT: out.delay + back.delay}
}

// Schedule exposes the event engine for protocol layers that pace their
// probes (e.g. ping's send interval).
func (n *Network) Schedule(after time.Duration, fn func()) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.engine.ScheduleAfter(after, fn)
}

// RunPending executes all queued events, advancing the simulated clock.
// Callbacks run without the network lock held, so they may call Probe,
// Schedule and the other measurement APIs.
func (n *Network) RunPending() {
	for {
		n.mu.Lock()
		fn, ok := n.engine.Step()
		n.mu.Unlock()
		if !ok {
			return
		}
		fn()
	}
}
