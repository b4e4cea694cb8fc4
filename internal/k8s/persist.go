package k8s

import "sort"

// Accessors used by the persistence layer (internal/persist) to capture
// the observable orchestrator state for snapshot digests. They expose
// copies, never internal slices.

// PendingPods returns the pending pods in queue order: the order they
// entered the queue, across the scheduler's and the harvest controller's.
func (o *Orchestrator) PendingPods() []*Pod {
	out := make([]*Pod, 0, o.PendingLen())
	a, b := o.pending, o.harvestQ
	for len(a) > 0 && len(b) > 0 {
		if a[0].enq < b[0].enq {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	out = append(out, a...)
	return append(out, b...)
}

// AllPods returns every pod reachable from the orchestrator's collections
// — pending, bound to a container, completed, or evicted — sorted by name
// and deduplicated. A pod inside a relaunch-delay window (crashed or
// drained, waiting on its requeue timer) is held only by a pending event
// closure and is not enumerable; capture-and-compare callers see the same
// view on both sides of a replay, so digests still match.
func (o *Orchestrator) AllPods() []*Pod {
	seen := make(map[*Pod]bool)
	var out []*Pod
	add := func(p *Pod) {
		if p != nil && !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, p := range o.PendingPods() {
		add(p)
	}
	for _, p := range o.byContainer {
		add(p)
	}
	for _, p := range o.Completed {
		add(p)
	}
	for _, p := range o.Evicted {
		add(p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// NodeID returns the device the pod currently runs on ("" when not bound).
func (p *Pod) NodeID() string {
	if p.container == nil {
		return ""
	}
	return p.container.GPU().ID()
}
