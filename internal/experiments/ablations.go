package experiments

import (
	"nestdiff/internal/alloc"
	"nestdiff/internal/geom"
	"nestdiff/internal/perfmodel"
	"nestdiff/internal/scenario"
	"nestdiff/internal/topology"
)

// This file holds the ablation studies DESIGN.md calls out: they isolate
// the individual design choices behind the paper's numbers.
//
//   - Scaling quantifies §IV-B's scalability argument: "the maximum
//     number of hops between old and new set of processors is likely to
//     increase for the scratch method with larger total processor count".
//   - Insertion isolates Algorithm 3's closest-sibling-weight insertion
//     (vs. filling the first free slot), the mechanism behind the
//     square-like rectangles of Fig. 6/7.
//   - Mapping isolates the folding-based topology-aware mapping (vs. naive
//     row-major placement) on the torus.
//   - Weights isolates the model-predicted allocation weights (vs. plain
//     nest area).

// Scaling replays the synthetic churn on BG/L partitions of 64, 256, 1024
// and 4096 cores and reports how the scratch/diffusion gap evolves.
func (r *Report) Scaling() ([]*SyntheticResult, error) {
	var ms []Machine
	for _, cores := range []int{64, 256, 1024, 4096} {
		m, err := BGL(cores)
		if err != nil {
			return nil, err
		}
		ms = append(ms, m)
	}
	return r.variants(ms...)
}

// InsertionAblationResult compares Algorithm 3's closest-weight insertion
// with the naive first-free-slot policy over the synthetic churn.
type InsertionAblationResult struct {
	// Mean aspect ratio of the resulting partitions (lower = more square =
	// faster nests, per Fig. 6/7).
	ClosestAspect   float64
	FirstFreeAspect float64
	// Mean execution time under the oracle.
	ClosestExec   float64
	FirstFreeExec float64
}

// Insertion replays the synthetic churn on BG/L 1024 through two diffusion
// variants differing only in the free-slot insertion policy.
func (r *Report) Insertion() (*InsertionAblationResult, error) {
	return cached(r, "insertion", func() (*InsertionAblationResult, error) {
		diffuse := func(policy alloc.InsertionPolicy) placeFunc {
			return func(g geom.Grid, prev *alloc.Allocation, prevSet, set scenario.Set, w map[int]float64) (*alloc.Allocation, error) {
				if prev == nil {
					return alloc.Scratch(g, w)
				}
				d := scenario.DiffSets(prevSet, set)
				change := alloc.Change{Deleted: d.Deleted, Retained: map[int]float64{}, Added: map[int]float64{}}
				for _, id := range d.Retained {
					change.Retained[id] = w[id]
				}
				for _, id := range d.Added {
					change.Added[id] = w[id]
				}
				return alloc.DiffusionWithPolicy(g, prev, change, policy)
			}
		}
		res := &InsertionAblationResult{}
		var err error
		if res.ClosestAspect, res.ClosestExec, err = r.allocSweep(predicted, diffuse(alloc.ClosestWeight)); err != nil {
			return nil, err
		}
		if res.FirstFreeAspect, res.FirstFreeExec, err = r.allocSweep(predicted, diffuse(alloc.FirstFree)); err != nil {
			return nil, err
		}
		return res, nil
	})
}

// WeightAblationResult compares the paper's model-predicted nest weights
// against naive area-proportional weights. The paper derives allocation
// shares from *predicted execution times* (§IV); plain area ignores the
// per-nest overheads and communication terms the model captures.
type WeightAblationResult struct {
	// Mean per-step execution time (max over simultaneously running
	// nests) under each weighting.
	ModelExec float64
	AreaExec  float64
}

// Weights replays the synthetic churn on BG/L 1024 allocating every set
// from scratch under both weight policies.
func (r *Report) Weights() (*WeightAblationResult, error) {
	return cached(r, "weights", func() (*WeightAblationResult, error) {
		place := func(g geom.Grid, _ *alloc.Allocation, _, _ scenario.Set, w map[int]float64) (*alloc.Allocation, error) {
			return alloc.Scratch(g, w)
		}
		area := func(_ *perfmodel.ExecModel, nx, ny, _ int) (float64, error) { return float64(nx) * float64(ny), nil }
		res := &WeightAblationResult{}
		var err error
		if _, res.ModelExec, err = r.allocSweep(predicted, place); err != nil {
			return nil, err
		}
		if _, res.AreaExec, err = r.allocSweep(area, place); err != nil {
			return nil, err
		}
		return res, nil
	})
}

// placeFunc allocates set on g given its weights and the previous
// allocation (nil at the first set).
type placeFunc func(g geom.Grid, prev *alloc.Allocation, prevSet, set scenario.Set, w map[int]float64) (*alloc.Allocation, error)

// predicted weighs a nest by its predicted execution time at an equal
// processor share, as the trackers do (§IV).
var predicted = (*perfmodel.ExecModel).Predict

// allocSweep allocates every set of the synthetic churn on BG/L 1024 with
// weigh and place, without a tracker, and returns the mean aspect ratio of
// the partitions and the mean oracle execution time of the slowest nest.
func (r *Report) allocSweep(weigh func(model *perfmodel.ExecModel, nx, ny, share int) (float64, error), place placeFunc) (aspect, exec float64, err error) {
	m, err := BGL(1024)
	if err != nil {
		return 0, 0, err
	}
	sets, err := r.syntheticSets(r.Cases)
	if err != nil {
		return 0, 0, err
	}
	var cur *alloc.Allocation
	var prev scenario.Set
	for _, set := range sets {
		weights := make(map[int]float64, len(set))
		share := max(1, m.Grid.Size()/max(1, len(set)))
		for _, spec := range set {
			nx, ny := spec.FineSize(3)
			if weights[spec.ID], err = weigh(m.Model, nx, ny, share); err != nil {
				return 0, 0, err
			}
		}
		if cur, err = place(m.Grid, cur, prev, set, weights); err != nil {
			return 0, 0, err
		}
		prev = set
		aspect += cur.MeanAspectRatio()
		stepExec := 0.0
		for _, spec := range set {
			nx, ny := spec.FineSize(3)
			rect := cur.Rects[spec.ID]
			stepExec = max(stepExec, m.Oracle.ExecTime(nx, ny, rect.Area(), rect.AspectRatio()))
		}
		exec += stepExec
	}
	return aspect / float64(len(sets)), exec / float64(len(sets)), nil
}

// Mapping replays the synthetic churn on BG/L 1024 with the folding-based
// topology-aware mapping (the machine itself) and with naive row-major
// rank placement on the same torus, in that order.
func (r *Report) Mapping() ([]*SyntheticResult, error) {
	m, err := BGL(1024)
	if err != nil {
		return nil, err
	}
	rowMajor := m
	rowMajor.Name += " (row-major)"
	if rowMajor.Net, err = topology.NewTorus3DLinear(m.Grid, topology.TorusDimsFor(m.Grid.Size()), topology.DefaultTorusParams()); err != nil {
		return nil, err
	}
	return r.variants(m, rowMajor)
}
