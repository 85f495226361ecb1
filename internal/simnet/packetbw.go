package simnet

import (
	"fmt"
	"time"

	"github.com/upin/scionpath/internal/pathmgr"
)

// BandwidthTestPacketLevel runs one direction of a bandwidth test packet by
// packet on the event engine, with explicit byte-limited tail-drop queues
// per link. It is the slow, high-fidelity counterpart of the fluid
// BandwidthTest: paced arrivals drain through each hop's queue at the
// link's residual capacity, and a packet is dropped when it does not fit.
//
// The two models agree in the underloaded regime (validated by tests). At
// deep overload they intentionally differ: the fluid model adds the goodput
// collapse of bursty real-world UDP senders, which smooth per-packet pacing
// does not exhibit — the ablation benchmarks quantify exactly that
// difference.
func (n *Network) BandwidthTestPacketLevel(p *pathmgr.Path, spec FlowSpec) (FlowResult, error) {
	if spec.PacketBytes < 4 {
		return FlowResult{}, fmt.Errorf("simnet: packet size %d below bwtester minimum of 4", spec.PacketBytes)
	}
	if spec.Duration <= 0 || spec.Duration > 10*time.Second {
		return FlowResult{}, fmt.Errorf("simnet: duration %v outside bwtester range (0, 10s]", spec.Duration)
	}
	if spec.TargetBps <= 0 {
		return FlowResult{}, fmt.Errorf("simnet: target bandwidth %v not positive", spec.TargetBps)
	}
	n.mu.Lock()
	defer n.mu.Unlock()

	r := n.routeLocked(p.Hops)
	steps := r.fwd
	if spec.Reverse {
		steps = r.rev
	}

	offeredPPS := spec.TargetBps / float64(spec.PacketBytes*8)
	sentPPS := offeredPPS
	if sentPPS > n.opts.SenderPPSCap && !n.opts.DisableSenderCap {
		sentPPS = n.opts.SenderPPSCap
	}
	total := int(sentPPS * spec.Duration.Seconds())
	if total < 1 {
		total = 1
	}
	interval := time.Duration(float64(spec.Duration) / float64(total))
	wireBytes := spec.PacketBytes + n.opts.HeaderBytes

	// Per-link queue state for this flow's traversal: occupancy in bytes
	// and the last drain time. Cross traffic contributes the initial
	// occupancy via the utilisation process.
	type linkState struct {
		occupancy float64
		last      time.Duration
		usable    float64 // bps available to this flow
		limit     float64 // queue byte limit
	}
	states := make([]*linkState, len(steps)-1)
	start := n.engine.Now()
	for i := 0; i+1 < len(steps); i++ {
		h := &steps[i]
		if h.link == nil {
			return FlowResult{}, h.linkErr()
		}
		u := n.utilLocked(h, start)
		states[i] = &linkState{
			occupancy: u * float64(h.link.QueueBytes),
			last:      start,
			usable:    h.capacity * (1 - u),
			limit:     float64(h.link.QueueBytes),
		}
	}

	received := 0
	for k := 0; k < total; k++ {
		now := start + time.Duration(k)*interval
		delivered := true
		for i := 0; i+1 < len(steps); i++ {
			if n.linkDownLocked(steps[i].ia, steps[i].next, now) {
				delivered = false
				break
			}
			dropped := false
			for _, ep := range n.episodes {
				if ep.IA == steps[i].ia && ep.Active(now) {
					if ep.DropProb >= 1 || n.rng.Float64() < ep.DropProb {
						dropped = true
					}
				}
			}
			if dropped {
				delivered = false
				break
			}
			s := states[i]
			// Drain since the last event at the residual rate.
			drained := s.usable / 8 * (now - s.last).Seconds()
			s.occupancy -= drained
			if s.occupancy < 0 {
				s.occupancy = 0
			}
			s.last = now
			// Tail drop: the packet must fit in the queue.
			if s.occupancy+float64(wireBytes) > s.limit {
				delivered = false
				break
			}
			s.occupancy += float64(wireBytes)
		}
		if delivered {
			received++
		}
	}
	n.engine.AdvanceTo(start + spec.Duration)

	res := FlowResult{
		AttemptedBps:    sentPPS * float64(spec.PacketBytes*8),
		AchievedBps:     float64(received) * float64(spec.PacketBytes*8) / spec.Duration.Seconds(),
		PacketsSent:     total,
		PacketsReceived: received,
	}
	if total > 0 {
		res.LossFraction = 1 - float64(received)/float64(total)
	}
	return res, nil
}
