package simnet

import (
	"fmt"
	"time"

	"github.com/upin/scionpath/internal/pathmgr"
)

// TransferSpec describes a chunked download split across a path set: the
// BitTorrent-style parallel chunk fetch of the SCION path-discovery work
// (PAPERS.md). The transfer is closed-loop and elastic — a TCP-like puller
// per path, not the open-loop UDP blast of BandwidthTest — so flows share
// links fairly and never drive a queue into overload collapse.
type TransferSpec struct {
	// TotalBytes is the payload to fetch (required).
	TotalBytes int64
	// ChunkBytes is the work-assignment granularity (default 256 KiB).
	// Chunks are pulled from a shared pool, so fast paths take more.
	ChunkBytes int64
	// PacketBytes sizes the packets on the wire (default 1200).
	PacketBytes int
	// MaxDuration aborts a transfer that cannot finish — dead paths, an
	// outage window — and marks the result Stalled (default 60s).
	MaxDuration time.Duration
}

func (s TransferSpec) withDefaults() TransferSpec {
	if s.ChunkBytes <= 0 {
		s.ChunkBytes = 256 << 10
	}
	if s.PacketBytes <= 0 {
		s.PacketBytes = 1200
	}
	if s.MaxDuration <= 0 {
		s.MaxDuration = 60 * time.Second
	}
	return s
}

// PathTransfer is one path's share of a split transfer.
type PathTransfer struct {
	Chunks int
	Bytes  int64
	// AchievedBps is the path's mean payload rate over the transfer.
	AchievedBps float64
}

// TransferResult reports a split transfer.
type TransferResult struct {
	// Bytes actually delivered (== TotalBytes unless Stalled).
	Bytes    int64
	Duration time.Duration
	// GoodputBps is delivered payload over the wall-clock duration — the
	// aggregate the multipath experiment compares against single-path.
	GoodputBps float64
	PerPath    []PathTransfer
	// Stalled is set when MaxDuration elapsed before the last chunk.
	Stalled bool
}

// flowState is one path's puller: its route in download direction (fixed
// for the whole transfer) and its position in the chunk it is currently
// fetching.
type flowState struct {
	steps  []routeHop
	chunk  int64 // bytes remaining in the current chunk (0 = needs a chunk)
	bytes  int64
	chunks int
}

// links returns the flow's steps that leave on a link: all but the last.
func (f *flowState) links() []routeHop { return f.steps[:len(f.steps)-1] }

// SplitTransfer fetches spec.TotalBytes by pulling fixed-size chunks from
// a shared pool over every path in parallel, advancing the simulated
// clock by the transfer duration. Per 100 ms fluid step each flow gets the
// max-min elastic rate of its path: the minimum over its links of the
// link's residual capacity divided by the number of transfer flows on that
// directed link. Disjoint path sets therefore aggregate their bottlenecks,
// while paths sharing a bottleneck split it — the effect the multipath
// experiment measures. Episode drops, base loss, and the endpoint
// packet-rate soft cap degrade goodput exactly as in BandwidthTest;
// outages zero a flow until the link recovers.
//
// The transfer is a DOWNLOAD: payload flows from the destination back to
// the source over each path's reversed hops (the asymmetric access links
// of the default world make the direction matter — §6.2's 55/22 Mbps
// attachment split).
func (n *Network) SplitTransfer(paths []*pathmgr.Path, spec TransferSpec) (TransferResult, error) {
	if len(paths) == 0 {
		return TransferResult{}, fmt.Errorf("simnet: split transfer needs at least one path")
	}
	if spec.TotalBytes <= 0 {
		return TransferResult{}, fmt.Errorf("simnet: transfer size %d not positive", spec.TotalBytes)
	}
	spec = spec.withDefaults()

	n.mu.Lock()
	defer n.mu.Unlock()

	flows := make([]*flowState, len(paths))
	for i, p := range paths {
		if len(p.Hops) < 2 {
			return TransferResult{}, fmt.Errorf("simnet: path %d has %d hops, need at least 2", i, len(p.Hops))
		}
		f := &flowState{steps: n.resolve(p.Hops).rev}
		for h := range f.links() {
			if f.steps[h].link == nil {
				return TransferResult{}, f.steps[h].linkErr()
			}
		}
		flows[i] = f
	}

	wirePerPayload := float64(spec.PacketBytes+n.opts.HeaderBytes) / float64(spec.PacketBytes)
	senderCapBps := n.opts.SenderPPSCap * float64(spec.PacketBytes*8)

	remaining := spec.TotalBytes // bytes not yet assigned to any flow
	delivered := int64(0)
	start := n.engine.Now()
	maxSteps := int(spec.MaxDuration / fluidStep)
	if maxSteps == 0 {
		maxSteps = 1
	}
	steps := 0
	for ; steps < maxSteps; steps++ {
		now := start + time.Duration(steps)*fluidStep

		// Assign chunks to idle flows while the pool lasts. shares counts
		// the live flows per directed link: flows crossing one link in one
		// direction split its residual capacity.
		live := 0
		shares := make(map[dirKey]int)
		for _, f := range flows {
			if f.chunk == 0 && remaining > 0 {
				f.chunk = min(spec.ChunkBytes, remaining)
				remaining -= f.chunk
				f.chunks++
			}
			if f.chunk > 0 {
				live++
				for _, h := range f.links() {
					shares[dirKey{h.link, h.fwd}]++
				}
			}
		}
		if live == 0 {
			break // pool drained and every in-flight chunk delivered
		}

		for _, f := range flows {
			if f.chunk == 0 {
				continue
			}
			// Max-min elastic share: the flow's payload rate is its
			// tightest per-link fair share, degraded by loss processes.
			rate := senderCapBps
			goodFrac := 1.0
			down := false
			links := f.links()
			for j := range links {
				h := &links[j]
				if n.linkDownLocked(h.ia, h.next, now) {
					down = true
					break
				}
				u := n.utilLocked(h, now)
				usableWire := h.capacity * (1 - u) / float64(shares[dirKey{h.link, h.fwd}])
				if r := usableWire / wirePerPayload; r < rate {
					rate = r
				}
				if h.link.BaseLoss > 0 {
					goodFrac *= 1 - h.link.BaseLoss
				}
			}
			if down {
				continue
			}
			// Congestion episodes at any traversed AS thin the goodput
			// (the elastic flow retransmits what the episode drops).
			for _, ep := range n.episodes {
				if !ep.Active(now) {
					continue
				}
				for _, h := range f.steps {
					if ep.IA == h.ia {
						goodFrac *= 1 - ep.DropProb
						break
					}
				}
			}
			rate *= goodFrac
			// Endpoint delivery soft cap, as in BandwidthTest.
			pps := rate / float64(spec.PacketBytes*8)
			rate *= 1 / (1 + (pps/n.opts.RecvSoftPPS)*(pps/n.opts.RecvSoftPPS))

			budget := int64(rate / 8 * fluidStep.Seconds())
			for budget > 0 && f.chunk > 0 {
				take := min(budget, f.chunk)
				f.chunk -= take
				f.bytes += take
				delivered += take
				budget -= take
				if f.chunk == 0 && remaining > 0 {
					f.chunk = min(spec.ChunkBytes, remaining)
					remaining -= f.chunk
					f.chunks++
				}
			}
		}
	}

	dur := time.Duration(steps) * fluidStep
	if dur == 0 {
		dur = fluidStep
	}
	n.engine.AdvanceTo(start + dur)

	res := TransferResult{
		Bytes:      delivered,
		Duration:   dur,
		GoodputBps: float64(delivered) * 8 / dur.Seconds(),
		PerPath:    make([]PathTransfer, len(flows)),
		Stalled:    remaining > 0 || anyInFlight(flows),
	}
	for i, f := range flows {
		res.PerPath[i] = PathTransfer{
			Chunks:      f.chunks,
			Bytes:       f.bytes,
			AchievedBps: float64(f.bytes) * 8 / dur.Seconds(),
		}
	}
	return res, nil
}

func anyInFlight(flows []*flowState) bool {
	for _, f := range flows {
		if f.chunk > 0 {
			return true
		}
	}
	return false
}
