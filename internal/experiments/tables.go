package experiments

import (
	"nestdiff/internal/alloc"
	"nestdiff/internal/geom"
)

// paperWeights are the Fig. 2 execution-time ratios for nests 1–5.
var paperWeights = map[int]float64{1: 0.1, 2: 0.1, 3: 0.2, 4: 0.25, 5: 0.35}

// table2Weights are the Fig. 4 ratios for nests 3, 5, 6.
var table2Weights = map[int]float64{3: 0.27, 5: 0.42, 6: 0.31}

// Table1 regenerates Table I: Huffman processor allocation of 5 nests on
// 1024 cores.
func (*Report) Table1() ([]alloc.Row, error) {
	a, err := alloc.Scratch(geom.NewGrid(32, 32), paperWeights)
	if err != nil {
		return nil, err
	}
	return a.Table(), nil
}

// Table2 regenerates Table II: partition-from-scratch reallocation for the
// surviving nest set {3, 5, 6}.
func (*Report) Table2() ([]alloc.Row, error) {
	a, err := alloc.Scratch(geom.NewGrid(32, 32), table2Weights)
	if err != nil {
		return nil, err
	}
	return a.Table(), nil
}

// Fig8Result is the diffusion walk-through of Fig. 8 applied to the
// Fig. 2 starting allocation.
type Fig8Result struct {
	OldTree string
	NewTree string
	OldRows []alloc.Row
	NewRows []alloc.Row
	// OverlapCells counts, per retained nest, the processors shared by the
	// old and new sub-rectangles (the "considerable overlap" of §IV-B).
	OverlapCells map[int]int
	// ScratchOverlapCells is the same for the Table II scratch allocation
	// (zero for both retained nests, per the paper).
	ScratchOverlapCells map[int]int
}

// Fig8 regenerates the tree-based hierarchical diffusion example: deleting
// nests 1, 2, 4; retaining 3, 5 (weights 0.27, 0.42); adding nest 6
// (0.31).
func (*Report) Fig8() (*Fig8Result, error) {
	g := geom.NewGrid(32, 32)
	old, err := alloc.Scratch(g, paperWeights)
	if err != nil {
		return nil, err
	}
	change := alloc.Change{
		Deleted:  []int{1, 2, 4},
		Retained: map[int]float64{3: 0.27, 5: 0.42},
		Added:    map[int]float64{6: 0.31},
	}
	diff, err := alloc.Diffusion(g, old, change)
	if err != nil {
		return nil, err
	}
	scr, err := alloc.Scratch(g, table2Weights)
	if err != nil {
		return nil, err
	}
	res := &Fig8Result{
		OldTree:             old.Tree.String(),
		NewTree:             diff.Tree.String(),
		OldRows:             old.Table(),
		NewRows:             diff.Table(),
		OverlapCells:        map[int]int{},
		ScratchOverlapCells: map[int]int{},
	}
	for _, id := range []int{3, 5} {
		res.OverlapCells[id] = old.Rects[id].Intersect(diff.Rects[id]).Area()
		res.ScratchOverlapCells[id] = old.Rects[id].Intersect(scr.Rects[id]).Area()
	}
	return res, nil
}
