package simnet

import (
	"fmt"
	"time"

	"github.com/upin/scionpath/internal/pathmgr"
)

// FlowSpec describes one direction of a bandwidth test: offer TargetBps of
// payload in PacketBytes-sized packets for Duration. It corresponds to one
// "cs" or "sc" parameter set of the bwtester (§3.3).
type FlowSpec struct {
	Duration    time.Duration
	PacketBytes int
	TargetBps   float64
	// Reverse selects the dst->src direction (the "sc" measurement).
	Reverse bool
}

// FlowResult reports what the flow achieved.
type FlowResult struct {
	// AttemptedBps is the payload rate the sender actually offered after
	// its own packet-rate limit.
	AttemptedBps float64
	// AchievedBps is the payload rate delivered to the receiver.
	AchievedBps float64
	// LossFraction is 1 - delivered/offered packets.
	LossFraction float64
	// PacketsSent and PacketsReceived are totals over the duration.
	PacketsSent     int
	PacketsReceived int
}

// fluidStep is the time resolution of the bandwidth model. Per step the
// flow is pushed through every hop as a fluid rate; queue overload and
// endpoint effects are applied analytically. 100 ms steps capture the
// cross-traffic dynamics that matter at 3-second test durations.
const fluidStep = 100 * time.Millisecond

// BandwidthTest runs one direction of a bwtester measurement over the path
// and advances the simulated clock by the test duration. The model captures
// the three effects behind the paper's Fig 7/8:
//
//   - a sender packet-rate cap (userspace UDP senders top out in pps, so
//     64-byte flows cannot actually offer 150 Mbps);
//   - endpoint delivery degradation at high packet rates (64-byte flows
//     lose throughput to per-packet overhead at 12 Mbps, Fig 7);
//   - goodput collapse of overloaded byte-limited queues (MTU flows at
//     150 Mbps overrun the bottleneck and lose disproportionately, letting
//     small packets win at high target rates, Fig 8).
func (n *Network) BandwidthTest(p *pathmgr.Path, spec FlowSpec) (FlowResult, error) {
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
	hops := r.fwd
	if spec.Reverse {
		hops = r.rev
	}

	// Sender-side packet rate cap.
	offeredPPS := spec.TargetBps / float64(spec.PacketBytes*8)
	sentPPS := offeredPPS
	if sentPPS > n.opts.SenderPPSCap && !n.opts.DisableSenderCap {
		sentPPS = n.opts.SenderPPSCap
	}
	attempted := sentPPS * float64(spec.PacketBytes*8)
	wirePerPkt := float64((spec.PacketBytes + n.opts.HeaderBytes) * 8)

	start := n.engine.Now()
	steps := int(spec.Duration / fluidStep)
	if steps == 0 {
		steps = 1
	}
	var sumAchieved float64
	var pktsSent, pktsRecv float64
	for s := 0; s < steps; s++ {
		now := start + time.Duration(s)*fluidStep
		pps := sentPPS
		for i := 0; i+1 < len(hops); i++ {
			h := &hops[i]
			// Congestion episodes at the forwarding AS kill the step's
			// traffic with the episode's probability (fluid equivalent).
			for _, ep := range n.episodes {
				if ep.IA == h.ia && ep.Active(now) {
					pps *= 1 - ep.DropProb
				}
			}
			if h.link == nil {
				return FlowResult{}, h.linkErr()
			}
			if n.linkDownLocked(h.ia, h.next, now) {
				pps = 0
				continue
			}
			u := n.utilLocked(h, now)
			usable := h.capacity * (1 - u)
			offeredWire := pps * wirePerPkt
			if offeredWire > usable {
				// Sustained UDP overload thrashes the tail-drop queue;
				// accepted goodput falls below the fair residual share.
				// With the collapse ablated, the link simply clips at its
				// usable rate (proportional dropping).
				acceptedWire := usable
				if !n.opts.DisableCollapse {
					x := offeredWire / usable
					acceptedWire = usable / (1 + n.opts.CollapseBeta*(x-1))
				}
				pps = acceptedWire / wirePerPkt
			}
			if h.link.BaseLoss > 0 {
				pps *= 1 - h.link.BaseLoss
			}
		}
		// Episode at the destination AS.
		for _, ep := range n.episodes {
			if ep.IA == hops[len(hops)-1].ia && ep.Active(now) {
				pps *= 1 - ep.DropProb
			}
		}
		// Endpoint delivery degradation at high packet rates.
		soft := 1 / (1 + (pps/n.opts.RecvSoftPPS)*(pps/n.opts.RecvSoftPPS))
		pps *= soft
		sumAchieved += pps * float64(spec.PacketBytes*8)
		pktsSent += sentPPS * fluidStep.Seconds()
		pktsRecv += pps * fluidStep.Seconds()
	}
	n.engine.AdvanceTo(start + spec.Duration)

	res := FlowResult{
		AttemptedBps:    attempted,
		AchievedBps:     sumAchieved / float64(steps),
		PacketsSent:     int(pktsSent),
		PacketsReceived: int(pktsRecv),
	}
	if pktsSent > 0 {
		res.LossFraction = 1 - pktsRecv/pktsSent
	}
	if res.LossFraction < 0 {
		res.LossFraction = 0
	}
	return res, nil
}
