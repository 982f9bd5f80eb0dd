package core

import (
	"fmt"

	"nestdiff/internal/alloc"
	"nestdiff/internal/geom"
	"nestdiff/internal/htree"
	"nestdiff/internal/perfmodel"
	"nestdiff/internal/scenario"
	"nestdiff/internal/topology"
)

// trackerState is the serializable part of a Tracker: the allocation
// (rectangles *and* the tree, which is the diffusion strategy's memory),
// the active nest set, options, and the recorded metrics. The machine
// model and performance models are reconstructed by the caller at restore
// time — they are configuration, not state.
type trackerState struct {
	Version  int
	GridPx   int
	GridPy   int
	Strategy Strategy
	Opts     Options
	Rects    map[int]geom.Rect
	Tree     []htree.FlatNode
	HasAlloc bool
	Specs    scenario.Set
	Steps    []StepMetrics
}

const trackerStateVersion = 1

// state captures the tracker's serializable state: the tracker record of
// the pipeline checkpoint's metadata.
func (t *Tracker) state() trackerState {
	st := trackerState{
		Version:  trackerStateVersion,
		GridPx:   t.grid.Px,
		GridPy:   t.grid.Py,
		Strategy: t.strategy,
		Opts:     t.opts,
		Specs:    append(scenario.Set(nil), t.specs...),
		Steps:    append([]StepMetrics(nil), t.steps...),
	}
	if t.cur != nil {
		st.HasAlloc = true
		st.Rects = make(map[int]geom.Rect, len(t.cur.Rects))
		for id, r := range t.cur.Rects {
			st.Rects[id] = r
		}
		if t.cur.Tree != nil {
			st.Tree = t.cur.Tree.Flatten()
		}
	}
	return st
}

// restoreTrackerState rebuilds a tracker from a decoded state, attaching
// the given machine and performance models. The restored tracker
// continues exactly where the saved one stopped: subsequent Apply calls
// diffuse from the restored tree.
func restoreTrackerState(st trackerState, net topology.Network, model *perfmodel.ExecModel, oracle *perfmodel.Oracle) (*Tracker, error) {
	if st.Version != trackerStateVersion {
		return nil, fmt.Errorf("core: unsupported tracker state version %d", st.Version)
	}
	if st.GridPx <= 0 || st.GridPy <= 0 {
		return nil, fmt.Errorf("core: corrupt grid %dx%d in tracker state", st.GridPx, st.GridPy)
	}
	g := geom.NewGrid(st.GridPx, st.GridPy)
	if net != nil && net.Size() < g.Size() {
		return nil, fmt.Errorf("%w: checkpoint grid %dx%d needs %d ranks, network has %d",
			ErrProcMismatch, st.GridPx, st.GridPy, g.Size(), net.Size())
	}
	t, err := NewTracker(g, net, model, oracle, st.Strategy, st.Opts)
	if err != nil {
		return nil, err
	}
	if st.HasAlloc {
		tree, err := htree.Unflatten(st.Tree)
		if err != nil {
			return nil, fmt.Errorf("core: restore allocation tree: %w", err)
		}
		a := &alloc.Allocation{Grid: g, Rects: st.Rects, Tree: tree}
		if a.Rects == nil {
			a.Rects = map[int]geom.Rect{}
		}
		if len(a.Rects) > 0 {
			if err := a.Validate(); err != nil {
				return nil, fmt.Errorf("core: restored allocation invalid: %w", err)
			}
		}
		t.cur = a
	}
	t.specs = st.Specs
	t.steps = st.Steps
	return t, nil
}
