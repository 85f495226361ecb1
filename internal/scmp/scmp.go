// Package scmp implements the SCMP-based measurement tools the paper drives:
// echo (scion ping) and traceroute (scion traceroute), including the exact
// statistics the test-suite stores — average latency over 30 echo packets at
// a 0.1 s interval, and the packet loss percentage (§5.3).
package scmp

import (
	"fmt"
	"math"
	"time"

	"github.com/upin/scionpath/internal/pathmgr"
	"github.com/upin/scionpath/internal/simnet"
)

// PingOpts configures an echo run. Zero values select the paper's
// parameters: 30 packets, 0.1 s interval, 8-byte payload.
type PingOpts struct {
	Count       int
	Interval    time.Duration
	PayloadSize int
	// Timeout bounds how long a reply may take before counting as lost.
	Timeout time.Duration
}

func (o PingOpts) withDefaults() PingOpts {
	if o.Count == 0 {
		o.Count = 30
	}
	if o.Interval == 0 {
		o.Interval = 100 * time.Millisecond
	}
	if o.PayloadSize == 0 {
		o.PayloadSize = 8
	}
	if o.Timeout == 0 {
		o.Timeout = 2 * time.Second
	}
	return o
}

// PingStats is the report `scion ping --count N` prints.
type PingStats struct {
	Sent     int
	Received int
	// Loss is the packet loss percentage in [0,100].
	Loss float64
	Min  time.Duration
	Avg  time.Duration
	Max  time.Duration
	// Mdev is the mean absolute deviation of the RTT samples, the jitter
	// indicator the paper's §6.1 discusses for ASes 1004/1007.
	Mdev time.Duration
	// RTTs holds the individual round-trip samples (received echoes only).
	RTTs []time.Duration
}

// String renders a one-line summary in ping style.
func (s PingStats) String() string {
	return fmt.Sprintf("%d packets transmitted, %d received, %.1f%% packet loss, rtt min/avg/max/mdev = %v/%v/%v/%v",
		s.Sent, s.Received, s.Loss, s.Min, s.Avg, s.Max, s.Mdev)
}

// Ping sends Count SCMP echo packets along the path, paced at Interval via
// the simulator's event engine, and returns the aggregate statistics. The
// simulated clock advances by Count*Interval, so measurements that run
// during a congestion episode observe it (Fig 9).
func Ping(net *simnet.Network, p *pathmgr.Path, opts PingOpts) (PingStats, error) {
	if p == nil || len(p.Hops) == 0 {
		return PingStats{}, fmt.Errorf("scmp: nil or empty path")
	}
	opts = opts.withDefaults()
	if opts.Count < 1 {
		return PingStats{}, fmt.Errorf("scmp: count %d < 1", opts.Count)
	}

	stats := PingStats{Sent: opts.Count}
	for i := 0; i < opts.Count; i++ {
		net.Schedule(time.Duration(i)*opts.Interval, func() {
			res := net.Probe(p, opts.PayloadSize, 0)
			if res.Dropped || res.RTT > opts.Timeout {
				return
			}
			stats.RTTs = append(stats.RTTs, res.RTT)
		})
	}
	net.RunPending()

	stats.Received = len(stats.RTTs)
	stats.Loss = 100 * float64(stats.Sent-stats.Received) / float64(stats.Sent)
	if stats.Received > 0 {
		stats.Min = stats.RTTs[0]
		var sum time.Duration
		for _, r := range stats.RTTs {
			if r < stats.Min {
				stats.Min = r
			}
			if r > stats.Max {
				stats.Max = r
			}
			sum += r
		}
		stats.Avg = sum / time.Duration(stats.Received)
		var dev float64
		for _, r := range stats.RTTs {
			dev += math.Abs(float64(r - stats.Avg))
		}
		stats.Mdev = time.Duration(dev / float64(stats.Received))
	}
	return stats, nil
}

// TracerouteHop is one line of scion traceroute output.
type TracerouteHop struct {
	Index int
	Hop   pathmgr.Hop
	// RTTs are the per-probe round trips to this hop; a zero value with
	// Timeout true means the probe was lost.
	RTTs    []time.Duration
	Timeout bool
}

// Traceroute probes every hop of the path with probesPerHop SCMP traceroute
// packets, the tool the paper uses "to test how the latency is affected by
// each link" (§3.3).
func Traceroute(net *simnet.Network, p *pathmgr.Path, probesPerHop int) ([]TracerouteHop, error) {
	if p == nil || len(p.Hops) == 0 {
		return nil, fmt.Errorf("scmp: nil or empty path")
	}
	if probesPerHop < 1 {
		probesPerHop = 3
	}
	out := make([]TracerouteHop, 0, len(p.Hops))
	for k := range p.Hops {
		th := TracerouteHop{Index: k, Hop: p.Hops[k]}
		lost := 0
		for i := 0; i < probesPerHop; i++ {
			res, err := net.ProbePartial(p, k, 8, 0)
			if err != nil {
				return nil, err
			}
			if res.Dropped {
				lost++
				continue
			}
			th.RTTs = append(th.RTTs, res.RTT)
		}
		th.Timeout = lost == probesPerHop
		out = append(out, th)
	}
	return out, nil
}
