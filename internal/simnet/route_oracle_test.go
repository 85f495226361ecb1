package simnet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/upin/scionpath/internal/addr"
	"github.com/upin/scionpath/internal/pathmgr"
	"github.com/upin/scionpath/internal/segment"
	"github.com/upin/scionpath/internal/topology"
)

// The oracle below walks the hop list of every packet and looks up each
// AS, link and utilisation state in the topology and the util map: the
// straightforward simulator that resolved routes must match draw for draw.
// It shares only the episode and outage predicates and the util map itself
// with the code under test.

func oracleReverseHops(hops []pathmgr.Hop) []pathmgr.Hop {
	out := make([]pathmgr.Hop, len(hops))
	for i, h := range hops {
		out[len(hops)-1-i] = pathmgr.Hop{IA: h.IA, In: h.Out, Out: h.In}
	}
	return out
}

func (n *Network) oracleLinkDir(a, b addr.IA) (*topology.Link, bool, float64, error) {
	l := n.topo.LinkBetween(a, b)
	if l == nil {
		return nil, false, 0, fmt.Errorf("simnet: no link %s--%s", a, b)
	}
	if l.A == a {
		return l, true, l.CapacityAtoB, nil
	}
	return l, false, l.CapacityBtoA, nil
}

func (n *Network) oracleUtilization(l *topology.Link, fwd bool, t time.Duration) float64 {
	k := dirKey{link: l, fwd: fwd}
	s := n.util[k]
	if s == nil {
		s = &utilState{u: n.opts.UtilMean + n.opts.UtilSigma*n.rng.NormFloat64(), last: t}
		s.u = clampUtil(s.u)
		n.util[k] = s
		return s.u
	}
	dt := (t - s.last).Seconds()
	if dt > 0 {
		alpha := 1 - math.Exp(-dt/30)
		s.u += alpha * (n.opts.UtilMean - s.u)
		s.u += n.opts.UtilSigma * math.Sqrt(math.Min(dt, 30)/30) * n.rng.NormFloat64()
		s.u = clampUtil(s.u)
		s.last = t
	}
	return s.u
}

func (n *Network) oracleTraverse(hops []pathmgr.Hop, wireBytes int, t time.Duration) traverseResult {
	var delay time.Duration
	for i, h := range hops {
		as := n.topo.AS(h.IA)
		if as == nil {
			return traverseResult{dropped: true, dropHop: i}
		}
		now := t + delay
		if n.episodeDropLocked(h.IA, now) {
			return traverseResult{delay: delay, dropped: true, dropHop: i}
		}
		delay += as.Processing
		if as.JitterScale > 0 && !n.opts.DisableJitter {
			delay += time.Duration(n.rng.ExpFloat64() * float64(as.JitterScale))
		}
		if i+1 >= len(hops) {
			break
		}
		l, fwd, capacity, err := n.oracleLinkDir(h.IA, hops[i+1].IA)
		if err != nil {
			return traverseResult{delay: delay, dropped: true, dropHop: i}
		}
		if n.linkDownLocked(h.IA, hops[i+1].IA, now) {
			return traverseResult{delay: delay, dropped: true, dropHop: i}
		}
		if wireBytes > l.MTU+n.opts.HeaderBytes {
			return traverseResult{delay: delay, dropped: true, dropHop: i}
		}
		if l.BaseLoss > 0 && n.rng.Float64() < l.BaseLoss {
			return traverseResult{delay: delay, dropped: true, dropHop: i}
		}
		u := n.oracleUtilization(l, fwd, now)
		ser := time.Duration(float64(wireBytes*8) / capacity * float64(time.Second))
		queued := time.Duration(u * float64(l.QueueBytes) * 8 / capacity * float64(time.Second))
		delay += ser + time.Duration(n.rng.Float64()*float64(queued))
		delay += n.topo.Delay(l)
	}
	return traverseResult{delay: delay}
}

func (n *Network) oracleProbe(hops []pathmgr.Hop, payloadBytes int, offset time.Duration) ProbeResult {
	wire := payloadBytes + n.opts.HeaderBytes
	start := n.engine.Now() + offset
	fwd := n.oracleTraverse(hops, wire, start)
	if fwd.dropped {
		return ProbeResult{Dropped: true, DropHop: fwd.dropHop}
	}
	back := n.oracleTraverse(oracleReverseHops(hops), wire, start+fwd.delay)
	if back.dropped {
		return ProbeResult{Dropped: true, DropHop: len(hops) + back.dropHop}
	}
	return ProbeResult{RTT: fwd.delay + back.delay}
}

// oracleBandwidthTest is BandwidthTest's fluid loop over the hop list; the
// spec is valid (the test never sends an invalid one).
func (n *Network) oracleBandwidthTest(p *pathmgr.Path, spec FlowSpec) (FlowResult, error) {
	hops := p.Hops
	if spec.Reverse {
		hops = oracleReverseHops(p.Hops)
	}
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
			for _, ep := range n.episodes {
				if ep.IA == hops[i].IA && ep.Active(now) {
					pps *= 1 - ep.DropProb
				}
			}
			l, fwd, capacity, err := n.oracleLinkDir(hops[i].IA, hops[i+1].IA)
			if err != nil {
				return FlowResult{}, err
			}
			if n.linkDownLocked(hops[i].IA, hops[i+1].IA, now) {
				pps = 0
				continue
			}
			u := n.oracleUtilization(l, fwd, now)
			usable := capacity * (1 - u)
			offeredWire := pps * wirePerPkt
			if offeredWire > usable {
				acceptedWire := usable
				if !n.opts.DisableCollapse {
					x := offeredWire / usable
					acceptedWire = usable / (1 + n.opts.CollapseBeta*(x-1))
				}
				pps = acceptedWire / wirePerPkt
			}
			if l.BaseLoss > 0 {
				pps *= 1 - l.BaseLoss
			}
		}
		for _, ep := range n.episodes {
			if ep.IA == hops[len(hops)-1].IA && ep.Active(now) {
				pps *= 1 - ep.DropProb
			}
		}
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

// oracleWorld is one random world of the route oracle: a generated
// topology whose links carry random base loss and MTUs, the combiner's
// paths between random AS pairs plus hop lists with a missing link, and a
// network with random congestion episodes and link outages.
func oracleWorld(t *testing.T, seed int64) (*Network, []*pathmgr.Path) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	topo, err := topology.Generate(topology.GenerateSpec{
		Seed: seed, ISDs: 2 + rng.Intn(2), CoresPerISD: 1 + rng.Intn(2), NonCorePerISD: 4 + rng.Intn(6),
		MaxChildren: 4, CoreDegree: 2.5, MultiParentProb: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range topo.Links() {
		if rng.Intn(4) == 0 {
			l.BaseLoss = 0.2 * rng.Float64()
		}
		if rng.Intn(4) == 0 {
			l.MTU = 600 + rng.Intn(800)
		}
	}
	ases := topo.ASes()
	c := pathmgr.NewCombiner(topo, segment.Discover(topo, segment.Options{}))
	var paths []*pathmgr.Path
	for len(paths) < 8 {
		src, dst := ases[rng.Intn(len(ases))].IA, ases[rng.Intn(len(ases))].IA
		ps, err := c.Paths(src, dst)
		if err != nil || len(ps) == 0 || len(ps[0].Hops) < 2 {
			continue
		}
		paths = append(paths, ps[rng.Intn(len(ps))])
	}
	// A hop list whose second step has no link: both implementations must
	// drop and fail at the same step.
	broken := *paths[0]
	broken.Hops = append([]pathmgr.Hop{broken.Hops[0]}, broken.Hops...)
	broken.Hops[1] = pathmgr.Hop{IA: ases[rng.Intn(len(ases))].IA}
	paths = append(paths, &broken)

	net := New(topo, Options{Seed: seed})
	for i := 0; i < 3; i++ {
		start := time.Duration(rng.Intn(20)) * time.Second
		drop := 1.0
		if rng.Intn(2) == 0 {
			drop = rng.Float64()
		}
		ep := Episode{IA: ases[rng.Intn(len(ases))].IA, Start: start, End: start + time.Duration(1+rng.Intn(10))*time.Second, DropProb: drop}
		if err := net.ScheduleEpisode(ep); err != nil {
			t.Fatal(err)
		}
		l := topo.Links()[rng.Intn(len(topo.Links()))]
		if err := net.ScheduleLinkOutage(LinkOutage{A: l.A, B: l.B, Start: start, End: start + 3*time.Second}); err != nil {
			t.Fatal(err)
		}
	}
	return net, paths
}

// TestRouteMatchesHopListOracle drives two same-seed forks of random
// worlds through the same random operations, one through the resolved
// routes and one through the hop-list oracle, and requires equal results,
// equal clocks and an equal next RNG draw after every operation.
func TestRouteMatchesHopListOracle(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		base, paths := oracleWorld(t, seed)
		got, want := base.Fork(seed), base.Fork(seed)
		rng := rand.New(rand.NewSource(seed))
		for op := 0; op < 120; op++ {
			p := paths[rng.Intn(len(paths))]
			var desc string
			switch rng.Intn(4) {
			case 0:
				payload := []int{8, 64, 1000, 1500}[rng.Intn(4)]
				offset := time.Duration(rng.Intn(50)) * time.Millisecond
				desc = fmt.Sprintf("Probe(payload %d, offset %v)", payload, offset)
				if g, w := got.Probe(p, payload, offset), want.oracleProbe(p.Hops, payload, offset); g != w {
					t.Fatalf("seed %d op %d %s on %v: got %+v, want %+v", seed, op, desc, p, g, w)
				}
			case 1:
				desc = "ProbePartial(every k)"
				for k := range p.Hops {
					g, err := got.ProbePartial(p, k, 8, 0)
					if err != nil {
						t.Fatal(err)
					}
					if w := want.oracleProbe(p.Hops[:k+1], 8, 0); g != w {
						t.Fatalf("seed %d op %d ProbePartial k=%d on %v: got %+v, want %+v", seed, op, k, p, g, w)
					}
				}
			case 2:
				spec := FlowSpec{
					Duration:    time.Duration(1+rng.Intn(10)) * fluidStep,
					PacketBytes: []int{64, p.MTU}[rng.Intn(2)],
					TargetBps:   []float64{12e6, 150e6}[rng.Intn(2)],
					Reverse:     rng.Intn(2) == 0,
				}
				desc = fmt.Sprintf("BandwidthTest(%+v)", spec)
				g, gerr := got.BandwidthTest(p, spec)
				w, werr := want.oracleBandwidthTest(p, spec)
				if g != w || fmt.Sprint(gerr) != fmt.Sprint(werr) {
					t.Fatalf("seed %d op %d %s on %v: got %+v, %v; want %+v, %v", seed, op, desc, p, g, gerr, w, werr)
				}
			case 3:
				d := time.Duration(rng.Intn(3000)) * time.Millisecond
				desc = fmt.Sprintf("Advance(%v)", d)
				got.Advance(d)
				want.Advance(d)
			}
			if g, w := got.Now(), want.Now(); g != w {
				t.Fatalf("seed %d op %d %s: clock %v, want %v", seed, op, desc, g, w)
			}
			if g, w := got.rng.Int63(), want.rng.Int63(); g != w {
				t.Fatalf("seed %d op %d %s: next RNG draw %d, want %d (the draw order shifted)", seed, op, desc, g, w)
			}
		}
	}
}
