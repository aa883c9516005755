package analysis

// dataflow.go is the forward-dataflow fixpoint framework the CFG-based
// analyzers share. An analyzer states its problem as a FlowSpec — an
// entry state, a transfer function over one block, a join for merging
// predecessor states and an equality test — and Forward iterates to a
// fixpoint with a worklist.
//
// Conventions:
//
//   - States are analyzer-defined values passed as `any`. Transfer must
//     treat its input as immutable (clone before changing); Join may
//     return either argument when the other is nil.
//   - A nil state means "unreachable": blocks whose predecessors all have
//     nil out-states are never transferred, and their own out-state stays
//     nil. Analyzers therefore never see a nil input.
//   - Join must be monotone (the merged state can only grow toward the
//     fixpoint) and Equal must be a true equivalence, or the worklist
//     will not terminate. With the small per-function graphs gslint
//     builds, the classic round-robin worklist converges in a handful of
//     passes.
type FlowSpec struct {
	Init     func() any            // state entering the Entry block
	Transfer func(*Block, any) any // out-state of a block given its in-state
	Join     func(a, b any) any    // merge two predecessor out-states
	Equal    func(a, b any) bool   // has the state stabilized?
}

// FlowResult holds the fixpoint: the state entering and leaving each
// reachable block (unreachable blocks map to nil).
type FlowResult struct {
	In  map[*Block]any
	Out map[*Block]any
}

// Forward solves the dataflow problem over the graph. Blocks are seeded
// in index order, so iteration — and any finding an analyzer derives from
// the result — is deterministic.
func (c *CFG) Forward(spec FlowSpec) *FlowResult {
	res := &FlowResult{
		In:  make(map[*Block]any, len(c.Blocks)),
		Out: make(map[*Block]any, len(c.Blocks)),
	}
	inQueue := make([]bool, len(c.Blocks))
	queue := make([]*Block, 0, len(c.Blocks))
	push := func(b *Block) {
		if !inQueue[b.Index] {
			inQueue[b.Index] = true
			queue = append(queue, b)
		}
	}
	for _, b := range c.Blocks {
		push(b)
	}
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		inQueue[b.Index] = false

		var in any
		if b == c.Entry {
			in = spec.Init()
		}
		for _, p := range b.Preds {
			if o := res.Out[p]; o != nil {
				if in == nil {
					in = o
				} else {
					in = spec.Join(in, o)
				}
			}
		}
		if in == nil {
			continue // unreachable (so far)
		}
		res.In[b] = in
		out := spec.Transfer(b, in)
		if old, ok := res.Out[b]; ok && spec.Equal(old, out) {
			continue
		}
		res.Out[b] = out
		for _, s := range b.Succs {
			push(s)
		}
	}
	return res
}
