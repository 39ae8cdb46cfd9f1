package phys

import (
	"fmt"
	"slices"
	"sort"
)

// TimingGraph is a combinational timing DAG: nodes with pin delays and
// directed edges (net/cell arcs) with delays.
type TimingGraph struct {
	nodes map[string]bool
	succ  map[string][]timingArc
	pred  map[string][]timingArc
}

type timingArc struct {
	to    string
	delay float64
}

// NewTimingGraph returns an empty timing graph.
func NewTimingGraph() *TimingGraph {
	return &TimingGraph{
		nodes: make(map[string]bool),
		succ:  make(map[string][]timingArc),
		pred:  make(map[string][]timingArc),
	}
}

// AddArc adds a directed delay arc from a to b.
func (g *TimingGraph) AddArc(a, b string, delay float64) *TimingGraph {
	g.nodes[a] = true
	g.nodes[b] = true
	g.succ[a] = append(g.succ[a], timingArc{to: b, delay: delay})
	g.pred[b] = append(g.pred[b], timingArc{to: a, delay: delay})
	return g
}

// topoOrder returns a topological order, or an error on cycles.
func (g *TimingGraph) topoOrder() ([]string, error) {
	indeg := make(map[string]int, len(g.nodes))
	names := make([]string, 0, len(g.nodes))
	for n := range g.nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		indeg[n] = len(g.pred[n])
	}
	// order doubles as the FIFO queue of Kahn's algorithm: nodes leave
	// the queue in the order they joined it.
	order := make([]string, 0, len(names))
	for _, n := range names {
		if indeg[n] == 0 {
			order = append(order, n)
		}
	}
	for i := 0; i < len(order); i++ {
		for _, a := range g.succ[order[i]] {
			indeg[a.to]--
			if indeg[a.to] == 0 {
				order = append(order, a.to)
			}
		}
	}
	if len(order) != len(g.nodes) {
		return nil, fmt.Errorf("phys: timing graph has a cycle")
	}
	return order, nil
}

// TimingReport holds arrival and required times plus slack per node.
type TimingReport struct {
	Arrival  map[string]float64
	Required map[string]float64
	Slack    map[string]float64
	// CriticalPath lists the nodes of the worst path, source to sink.
	CriticalPath []string
	// WNS is the worst negative slack (or the smallest slack when all
	// paths meet timing).
	WNS float64
}

// Analyze performs static timing analysis against the clock period:
// forward arrival propagation, backward required propagation from sinks
// (required = period), and slack = required - arrival.
func (g *TimingGraph) Analyze(period float64) (*TimingReport, error) {
	order, err := g.topoOrder()
	if err != nil {
		return nil, err
	}
	arr := make(map[string]float64, len(order))
	from := make(map[string]string, len(order))
	for _, n := range order {
		for _, a := range g.succ[n] {
			if t := arr[n] + a.delay; t > arr[a.to] || from[a.to] == "" {
				if t >= arr[a.to] {
					arr[a.to] = t
					from[a.to] = n
				}
			}
		}
	}
	req := make(map[string]float64, len(order))
	for _, n := range order {
		req[n] = period
	}
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		for _, a := range g.succ[n] {
			if r := req[a.to] - a.delay; r < req[n] {
				req[n] = r
			}
		}
	}
	slack := make(map[string]float64, len(order))
	wns := period
	worstSink := ""
	for _, n := range order {
		slack[n] = req[n] - arr[n]
		if len(g.succ[n]) == 0 { // sink
			if s := period - arr[n]; s < wns || worstSink == "" {
				wns = s
				worstSink = n
			}
		}
	}
	// Trace critical path back from the worst sink.
	var path []string
	for cur := worstSink; cur != ""; cur = from[cur] {
		path = append(path, cur)
		if _, ok := from[cur]; !ok {
			break
		}
	}
	slices.Reverse(path)
	return &TimingReport{
		Arrival:      arr,
		Required:     req,
		Slack:        slack,
		CriticalPath: path,
		WNS:          wns,
	}, nil
}

// CriticalDelay returns the longest source-to-sink delay.
func (g *TimingGraph) CriticalDelay() (float64, error) {
	r, err := g.Analyze(0)
	if err != nil {
		return 0, err
	}
	worst := 0.0
	for n, a := range r.Arrival {
		if len(g.succ[n]) == 0 && a > worst {
			worst = a
		}
	}
	return worst, nil
}

// UsefulSkew computes the maximum clock frequency gain from retiming a
// two-stage path: with path delays d1 (launch->mid) and d2 (mid->capture)
// the unskewed period is max(d1, d2); applying skew s to the mid flop
// balances them to (d1+d2)/2 when |d1-d2|/2 skew is legal.
func UsefulSkew(d1, d2 float64) (periodBefore, periodAfter, skew float64) {
	periodBefore = d1
	if d2 > d1 {
		periodBefore = d2
	}
	periodAfter = (d1 + d2) / 2
	skew = (d1 - d2) / 2
	return periodBefore, periodAfter, skew
}
