// Package topology models a SCION network topology: ASes grouped into
// isolation domains (ISDs), typed as core ASes, non-core ASes and attachment
// points (APs), connected by core and parent-child links with physical
// attributes (geography, capacity, queueing, loss) from which the simulator
// derives behaviour.
//
// The package mirrors the structure of the SCIONLab world topology the paper
// evaluates (Fig 1): 35 ASes across several ISDs plus the experimenters' own
// AS attached to ETHZ-AP.
//
//lint:deterministic generated worlds must be reproducible from GenerateSpec.Seed
package topology

import (
	"fmt"
	"sort"
	"time"

	"github.com/upin/scionpath/internal/addr"
	"github.com/upin/scionpath/internal/geo"
)

// ASType distinguishes the three roles in SCIONLab (§3.1) plus user ASes.
type ASType int

const (
	// Core ASes are the root of trust of their ISD and run core beaconing.
	Core ASType = iota
	// NonCore ASes are standard members of an ISD.
	NonCore
	// AttachmentPoint ASes accept user AS attachments.
	AttachmentPoint
	// UserAS is an experimenter's AS attached to an AP (the paper's MY_AS).
	UserAS
)

// String implements fmt.Stringer.
func (t ASType) String() string {
	switch t {
	case Core:
		return "core"
	case NonCore:
		return "non-core"
	case AttachmentPoint:
		return "attachment-point"
	case UserAS:
		return "user"
	default:
		return fmt.Sprintf("ASType(%d)", int(t))
	}
}

// AS describes one autonomous system. A SCIONLab AS is typically a single
// host running control services, border routers and end-host applications,
// so "AS" and "host" are interchangeable (paper §3.1); NumServers > 1 models
// the ASes that house several testable servers.
type AS struct {
	IA       addr.IA
	Name     string
	Type     ASType
	Site     geo.Site
	Operator string // organisation running the AS, for sovereignty filters

	// Processing is the fixed per-packet forwarding latency added by the AS.
	Processing time.Duration
	// JitterScale is the mean of the exponential jitter the AS adds per
	// traversal. The paper finds 16-ffaa:0:1007 and 16-ffaa:0:1004 add "a
	// wide jitter other than high latency peeks" (§6.1).
	JitterScale time.Duration

	// NumServers is how many testable servers the AS houses (≥1 means it
	// appears in availableServers; 0 means transit-only or unreachable).
	NumServers int
}

// LinkType distinguishes the two SCION link relationships we model.
type LinkType int

const (
	// CoreLink connects two core ASes (possibly across ISDs).
	CoreLink LinkType = iota
	// ParentChild connects a provider (A, parent) to a customer (B, child).
	ParentChild
)

// String implements fmt.Stringer.
func (t LinkType) String() string {
	if t == CoreLink {
		return "core"
	}
	return "parent-child"
}

// Link is a bidirectional adjacency between two ASes. Interface identifiers
// are per-AS and assigned by the builder. Capacities may be asymmetric: AtoB
// is the capacity of the A→B direction.
type Link struct {
	Type LinkType
	A, B addr.IA
	AIf  addr.IfID // A's interface for this link
	BIf  addr.IfID // B's interface for this link

	// CapacityAtoB/BtoA are in bits per second.
	CapacityAtoB float64
	CapacityBtoA float64
	// QueueBytes is the byte limit of the tail-drop queue at each end.
	QueueBytes int
	// BaseLoss is the residual per-packet loss probability of the medium.
	BaseLoss float64
	// MTU of the link in bytes.
	MTU int

	// delay is the one-way propagation delay between the two ASes' sites,
	// fixed when Connect made the link (AS coordinates never change after
	// AddAS); Topology.Delay reads it once per packet per hop.
	delay time.Duration
}

// DefaultMTU is used when a link does not specify one. SCIONLab paths
// commonly report 1472.
const DefaultMTU = 1472

// Topology is an immutable-after-build SCION network.
type Topology struct {
	ases  map[addr.IA]*AS
	links []*Link
	// ifaceCount tracks the next interface id to assign per AS.
	ifaceCount map[addr.IA]addr.IfID
	// adjacency: per AS, links it participates in.
	adj map[addr.IA][]*Link
}

// New returns an empty topology.
func New() *Topology {
	return &Topology{
		ases:       make(map[addr.IA]*AS),
		ifaceCount: make(map[addr.IA]addr.IfID),
		adj:        make(map[addr.IA][]*Link),
	}
}

// AddAS registers an AS. It returns an error on duplicates or invalid input.
func (t *Topology) AddAS(as *AS) error {
	if as == nil {
		return fmt.Errorf("topology: nil AS")
	}
	if as.IA.Zero() {
		return fmt.Errorf("topology: AS %q has zero ISD-AS", as.Name)
	}
	if _, dup := t.ases[as.IA]; dup {
		return fmt.Errorf("topology: duplicate AS %s", as.IA)
	}
	if !as.Site.Coords.Valid() {
		return fmt.Errorf("topology: AS %s has invalid coordinates", as.IA)
	}
	cp := *as
	t.ases[as.IA] = &cp
	return nil
}

// MustAddAS panics on error; for topology literals.
func (t *Topology) MustAddAS(as *AS) {
	if err := t.AddAS(as); err != nil {
		panic(err)
	}
}

// LinkSpec carries the physical attributes for Connect.
type LinkSpec struct {
	CapacityAtoB float64 // bps, 0 means DefaultCapacity
	CapacityBtoA float64 // bps, 0 means DefaultCapacity
	QueueBytes   int     // 0 means DefaultQueueBytes
	BaseLoss     float64
	MTU          int // 0 means DefaultMTU
}

// Default physical attributes for links that do not override them.
const (
	DefaultCapacity   = 1e9 // 1 Gbps backbone
	DefaultQueueBytes = 64 * 1024
)

// Connect adds a link between two registered ASes, assigning fresh interface
// ids on both sides. For ParentChild links, a is the parent.
func (t *Topology) Connect(typ LinkType, a, b addr.IA, spec LinkSpec) (*Link, error) {
	asA, okA := t.ases[a]
	asB, okB := t.ases[b]
	if !okA {
		return nil, fmt.Errorf("topology: connect: unknown AS %s", a)
	}
	if !okB {
		return nil, fmt.Errorf("topology: connect: unknown AS %s", b)
	}
	if a == b {
		return nil, fmt.Errorf("topology: connect: self link at %s", a)
	}
	if typ == CoreLink && (asA.Type != Core || asB.Type != Core) {
		return nil, fmt.Errorf("topology: core link %s--%s requires two core ASes", a, b)
	}
	if typ == ParentChild && asB.Type == Core {
		return nil, fmt.Errorf("topology: core AS %s cannot be a child", b)
	}
	if spec.CapacityAtoB == 0 {
		spec.CapacityAtoB = DefaultCapacity
	}
	if spec.CapacityBtoA == 0 {
		spec.CapacityBtoA = DefaultCapacity
	}
	if spec.QueueBytes == 0 {
		spec.QueueBytes = DefaultQueueBytes
	}
	if spec.MTU == 0 {
		spec.MTU = DefaultMTU
	}
	if spec.BaseLoss < 0 || spec.BaseLoss >= 1 {
		return nil, fmt.Errorf("topology: base loss %v out of [0,1)", spec.BaseLoss)
	}
	t.ifaceCount[a]++
	t.ifaceCount[b]++
	l := &Link{
		Type: typ, A: a, B: b,
		AIf: t.ifaceCount[a], BIf: t.ifaceCount[b],
		CapacityAtoB: spec.CapacityAtoB, CapacityBtoA: spec.CapacityBtoA,
		QueueBytes: spec.QueueBytes, BaseLoss: spec.BaseLoss, MTU: spec.MTU,
		delay: geo.PropagationDelay(asA.Site.Coords, asB.Site.Coords),
	}
	t.links = append(t.links, l)
	t.adj[a] = append(t.adj[a], l)
	t.adj[b] = append(t.adj[b], l)
	return l, nil
}

// MustConnect panics on error.
func (t *Topology) MustConnect(typ LinkType, a, b addr.IA, spec LinkSpec) *Link {
	l, err := t.Connect(typ, a, b, spec)
	if err != nil {
		panic(err)
	}
	return l
}

// AS returns the AS with the given identifier, or nil.
func (t *Topology) AS(ia addr.IA) *AS { return t.ases[ia] }

// ASes returns all ASes sorted by ISD then AS number.
func (t *Topology) ASes() []*AS {
	out := make([]*AS, 0, len(t.ases))
	for _, as := range t.ases {
		out = append(out, as)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].IA.ISD != out[j].IA.ISD {
			return out[i].IA.ISD < out[j].IA.ISD
		}
		return out[i].IA.AS < out[j].IA.AS
	})
	return out
}

// Links returns all links in insertion order.
func (t *Topology) Links() []*Link { return t.links }

// LinksOf returns the links a given AS participates in.
func (t *Topology) LinksOf(ia addr.IA) []*Link { return t.adj[ia] }

// LinkBetween returns the first link between two ASes (either orientation),
// or nil.
func (t *Topology) LinkBetween(a, b addr.IA) *Link {
	for _, l := range t.adj[a] {
		if (l.A == a && l.B == b) || (l.A == b && l.B == a) {
			return l
		}
	}
	return nil
}

// CoreASes returns the core ASes of an ISD (all ISDs when isd == 0).
func (t *Topology) CoreASes(isd addr.ISD) []*AS {
	var out []*AS
	for _, as := range t.ASes() {
		if as.Type == Core && (isd == 0 || as.IA.ISD == isd) {
			out = append(out, as)
		}
	}
	return out
}

// ISDs returns the sorted list of ISDs present.
func (t *Topology) ISDs() []addr.ISD {
	set := map[addr.ISD]bool{}
	for ia := range t.ases {
		set[ia.ISD] = true
	}
	out := make([]addr.ISD, 0, len(set))
	for isd := range set {
		out = append(out, isd)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Servers returns, in catalogue order, one entry per testable server: ASes
// with NumServers >= 1 contribute that many servers, each with a synthetic
// AS-local address. This is the paper's availableServers set (21 servers).
func (t *Topology) Servers() []addr.Host {
	var out []addr.Host
	for _, as := range t.ASes() {
		for i := 0; i < as.NumServers; i++ {
			out = append(out, addr.Host{
				IA:    as.IA,
				Local: fmt.Sprintf("172.31.%d.%d", as.IA.ISD, 10+i),
			})
		}
	}
	return out
}

// Delay returns the one-way propagation delay of the link from geography,
// as Connect computed it.
func (t *Topology) Delay(l *Link) time.Duration { return l.delay }

// Validate performs structural checks: connectivity of the AS graph, every
// non-core AS has a parent, every ISD has at least one core AS, user ASes
// attach only to attachment points.
func (t *Topology) Validate() error {
	if len(t.ases) == 0 {
		return fmt.Errorf("topology: empty")
	}
	coreByISD := map[addr.ISD]int{}
	for _, as := range t.ases {
		if as.Type == Core {
			coreByISD[as.IA.ISD]++
		}
	}
	for _, isd := range t.ISDs() {
		if coreByISD[isd] == 0 {
			return fmt.Errorf("topology: ISD %d has no core AS", isd)
		}
	}
	parents := map[addr.IA]int{}
	for _, l := range t.links {
		if l.Type == ParentChild {
			parents[l.B]++
			if l.A.ISD != l.B.ISD {
				return fmt.Errorf("topology: parent-child link %s--%s crosses ISDs", l.A, l.B)
			}
			if up := t.ases[l.B]; up.Type == UserAS && t.ases[l.A].Type != AttachmentPoint {
				return fmt.Errorf("topology: user AS %s attached to non-AP %s", l.B, l.A)
			}
		}
	}
	for ia, as := range t.ases {
		if as.Type != Core && parents[ia] == 0 {
			return fmt.Errorf("topology: non-core AS %s has no parent", ia)
		}
	}
	// Connectivity over the undirected AS graph.
	var start addr.IA
	for ia := range t.ases {
		start = ia
		break
	}
	seen := map[addr.IA]bool{start: true}
	stack := []addr.IA{start}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, l := range t.adj[cur] {
			next := l.A
			if next == cur {
				next = l.B
			}
			if !seen[next] {
				seen[next] = true
				stack = append(stack, next)
			}
		}
	}
	if len(seen) != len(t.ases) {
		return fmt.Errorf("topology: AS graph not connected (%d/%d reachable)", len(seen), len(t.ases))
	}
	return nil
}
