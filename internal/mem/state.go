package mem

import "fmt"

// TierState is the serializable dynamic state of one tier: free-page
// count and watermarks (Pro moves at runtime via SetProWatermark).
type TierState struct {
	Free  int64      `json:"free"`
	Marks Watermarks `json:"marks"`
}

// NodeState is the serializable dynamic state of a Node. Capacities and
// page size are configuration rebuilt by NewNode, and the latency model
// and bandwidth limits are fixed; none of them is state.
type NodeState struct {
	Tiers         [NumTiers]TierState `json:"tiers"`
	PromotedPages int64               `json:"promoted_pages"`
	DemotedPages  int64               `json:"demoted_pages"`
}

// State captures the node's dynamic state.
func (n *Node) State() NodeState {
	var st NodeState
	for id, t := range n.tiers {
		st.Tiers[id] = TierState{Free: t.free, Marks: t.marks}
	}
	st.PromotedPages = n.PromotedPages
	st.DemotedPages = n.DemotedPages
	return st
}

// SetState overlays a captured NodeState onto a node built from the same
// Config. Free counts outside [0, Capacity] are rejected.
func (n *Node) SetState(st NodeState) error {
	for id, t := range n.tiers {
		if st.Tiers[id].Free < 0 || st.Tiers[id].Free > t.Capacity {
			return fmt.Errorf("mem: restore: tier %v free %d outside [0, %d]", TierID(id), st.Tiers[id].Free, t.Capacity)
		}
	}
	for id, t := range n.tiers {
		t.free = st.Tiers[id].Free
		t.marks = st.Tiers[id].Marks
	}
	n.PromotedPages = st.PromotedPages
	n.DemotedPages = st.DemotedPages
	return nil
}
