package simnet

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"github.com/upin/scionpath/internal/addr"
	"github.com/upin/scionpath/internal/topology"
)

// Options tunes the physical model. Zero values select defaults calibrated
// for SCIONLab-like behaviour (small VMs, software forwarding).
type Options struct {
	// Seed drives all randomness; runs are reproducible per seed.
	Seed int64
	// HeaderBytes is the per-packet SCION/UDP overhead on the wire.
	HeaderBytes int
	// SenderPPSCap is the maximum packet rate an endpoint can generate
	// (syscall-bound userspace sender).
	SenderPPSCap float64
	// RecvSoftPPS is the packet rate at which endpoint delivery starts to
	// degrade (dispatcher overhead); delivery fraction is
	// 1/(1+(pps/RecvSoftPPS)^2).
	RecvSoftPPS float64
	// CollapseBeta controls goodput collapse under sustained UDP overload:
	// accepted = usable/(1+beta*(x-1)) for offered/usable = x > 1. Larger
	// beta means overload wastes more of the bottleneck (queue thrash).
	CollapseBeta float64
	// UtilMean and UtilSigma shape the cross-traffic utilisation process.
	UtilMean  float64
	UtilSigma float64

	// Ablation switches (model-necessity experiments; see the ablation
	// benchmarks). Each removes one mechanism from the physical model.
	DisableJitter    bool // per-AS latency jitter off
	DisableCollapse  bool // overload goodput collapse off (proportional drop)
	DisableSenderCap bool // endpoint packet-rate limit off
}

func (o Options) withDefaults() Options {
	if o.HeaderBytes == 0 {
		o.HeaderBytes = 88
	}
	if o.SenderPPSCap == 0 {
		o.SenderPPSCap = 30000
	}
	if o.RecvSoftPPS == 0 {
		o.RecvSoftPPS = 80000
	}
	if o.CollapseBeta == 0 {
		o.CollapseBeta = 0.7
	}
	if o.UtilMean == 0 {
		o.UtilMean = 0.30
	}
	if o.UtilSigma == 0 {
		o.UtilSigma = 0.08
	}
	return o
}

// Episode is a scheduled congestion event: while active, every packet
// traversing AS IA is dropped with probability DropProb. Fig 9's 100%-loss
// paths are produced by an episode with DropProb 1 on a shared transit node.
type Episode struct {
	IA       addr.IA
	Start    time.Duration
	End      time.Duration
	DropProb float64
}

// Active reports whether the episode covers simulated time t.
func (ep Episode) Active(t time.Duration) bool { return t >= ep.Start && t < ep.End }

// dirKey identifies a directed traversal of a link.
type dirKey struct {
	link *topology.Link
	fwd  bool // true when traversing A->B
}

// utilState is the cross-traffic utilisation of one link direction, evolved
// lazily as a mean-reverting random walk.
type utilState struct {
	u    float64
	last time.Duration
}

// Network simulates the data plane over a topology. topo and opts are
// immutable after New; mu guards the mutable simulation state below it.
type Network struct {
	topo *topology.Topology
	opts Options

	mu       sync.Mutex
	rng      *rand.Rand
	engine   *Engine
	episodes []Episode
	outages  []LinkOutage
	util     map[dirKey]*utilState
	// route is the last hop list resolved (see routeLocked). Fork does not
	// copy it: its steps point into this network's util map.
	route *route
}

// New creates a simulator over the topology.
func New(topo *topology.Topology, opts Options) *Network {
	opts = opts.withDefaults()
	return &Network{
		topo:   topo,
		opts:   opts,
		rng:    rand.New(rand.NewSource(opts.Seed)),
		engine: NewEngine(),
		util:   make(map[dirKey]*utilState),
	}
}

// Seed returns the seed driving this world's randomness (opts are immutable
// after New, so no lock is needed).
func (n *Network) Seed() int64 { return n.opts.Seed }

// Fork returns an independent simulation world over the same immutable
// topology and physical-model options, but with its own event engine (clock
// at zero), its own rng stream driven by seed, and fresh cross-traffic
// state. Scheduled congestion episodes and link outages are copied, so a
// fork sees the same scheduled network weather at a given simulated time.
// Forks are how the campaign engine gives each measurement cell a private,
// deterministic world: a fork never shares mutable state with its parent,
// so forks are safe to drive from concurrent goroutines.
func (n *Network) Fork(seed int64) *Network {
	n.mu.Lock()
	defer n.mu.Unlock()
	opts := n.opts
	opts.Seed = seed
	return &Network{
		topo:     n.topo,
		opts:     opts,
		rng:      rand.New(rand.NewSource(seed)),
		engine:   NewEngine(),
		episodes: append([]Episode(nil), n.episodes...),
		outages:  append([]LinkOutage(nil), n.outages...),
		util:     make(map[dirKey]*utilState),
	}
}

// Now returns the simulated clock.
func (n *Network) Now() time.Duration {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.engine.Now()
}

// Advance moves the simulated clock forward by d (idle time between
// measurements).
func (n *Network) Advance(d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.engine.AdvanceTo(n.engine.Now() + d)
}

// ScheduleEpisode registers a congestion episode.
func (n *Network) ScheduleEpisode(ep Episode) error {
	if ep.End <= ep.Start {
		return fmt.Errorf("simnet: episode end %v <= start %v", ep.End, ep.Start)
	}
	if ep.DropProb < 0 || ep.DropProb > 1 {
		return fmt.Errorf("simnet: episode drop probability %v out of [0,1]", ep.DropProb)
	}
	if n.topo.AS(ep.IA) == nil {
		return fmt.Errorf("simnet: episode on unknown AS %s", ep.IA)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.episodes = append(n.episodes, ep)
	return nil
}

// episodeDropLocked samples whether a packet at AS ia at time t is dropped
// by an active congestion episode. Callers hold n.mu.
func (n *Network) episodeDropLocked(ia addr.IA, t time.Duration) bool {
	for _, ep := range n.episodes {
		if ep.IA == ia && ep.Active(t) {
			if ep.DropProb >= 1 || n.rng.Float64() < ep.DropProb {
				return true
			}
		}
	}
	return false
}

// utilLocked returns the cross-traffic utilisation of the step's link
// direction at time t. The first traversal of a step finds (or creates,
// drawing its initial value) the direction's state in n.util and keeps a
// pointer to it; later traversals only evolve it. Callers hold n.mu (the
// walk state and rng are guarded).
func (n *Network) utilLocked(h *routeHop, t time.Duration) float64 {
	if h.util == nil {
		k := dirKey{link: h.link, fwd: h.fwd}
		s := n.util[k]
		if s == nil {
			s = &utilState{u: clampUtil(n.opts.UtilMean + n.opts.UtilSigma*n.rng.NormFloat64()), last: t}
			n.util[k] = s
		}
		h.util = s
	}
	n.evolveLocked(h.util, t)
	return h.util.u
}

// evolveLocked advances the mean-reverting walk of s to time t. Callers
// hold n.mu.
func (n *Network) evolveLocked(s *utilState, t time.Duration) {
	dt := (t - s.last).Seconds()
	if dt > 0 {
		// Mean reversion with horizon ~30s plus diffusion.
		alpha := 1 - math.Exp(-dt/30)
		s.u += alpha * (n.opts.UtilMean - s.u)
		s.u += n.opts.UtilSigma * math.Sqrt(math.Min(dt, 30)/30) * n.rng.NormFloat64()
		s.u = clampUtil(s.u)
		s.last = t
	}
}

func clampUtil(u float64) float64 {
	if u < 0.02 {
		return 0.02
	}
	if u > 0.75 {
		return 0.75
	}
	return u
}

// traverseResult is the outcome of sending one packet along a route.
type traverseResult struct {
	delay   time.Duration
	dropped bool
	dropHop int // index of the AS where the packet died (when dropped)
}

// traverseLocked sends one packet of wireBytes along the route steps
// starting at time t. Callers hold n.mu.
func (n *Network) traverseLocked(steps []routeHop, wireBytes int, t time.Duration) traverseResult {
	var delay time.Duration
	for i := range steps {
		h := &steps[i]
		if h.as == nil {
			return traverseResult{dropped: true, dropHop: i}
		}
		now := t + delay
		if n.episodeDropLocked(h.ia, now) {
			return traverseResult{delay: delay, dropped: true, dropHop: i}
		}
		delay += h.as.Processing
		if h.as.JitterScale > 0 && !n.opts.DisableJitter {
			delay += time.Duration(n.rng.ExpFloat64() * float64(h.as.JitterScale))
		}
		if i+1 >= len(steps) {
			break
		}
		l := h.link
		if l == nil || n.linkDownLocked(h.ia, h.next, now) {
			return traverseResult{delay: delay, dropped: true, dropHop: i}
		}
		// Oversized packets are dropped at the first link they do not fit
		// (SCION has no in-network fragmentation).
		if wireBytes > l.MTU+n.opts.HeaderBytes {
			return traverseResult{delay: delay, dropped: true, dropHop: i}
		}
		if l.BaseLoss > 0 && n.rng.Float64() < l.BaseLoss {
			return traverseResult{delay: delay, dropped: true, dropHop: i}
		}
		u := n.utilLocked(h, now)
		// Serialization of this packet plus expected queueing behind
		// cross-traffic occupancy.
		ser := time.Duration(float64(wireBytes*8) / h.capacity * float64(time.Second))
		queued := time.Duration(u * float64(l.QueueBytes) * 8 / h.capacity * float64(time.Second))
		// Queueing varies packet to packet; scale by a uniform draw.
		delay += ser + time.Duration(n.rng.Float64()*float64(queued))
		delay += h.delay
	}
	return traverseResult{delay: delay}
}
