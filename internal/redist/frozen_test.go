package redist_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"nestdiff/internal/alloc"
	"nestdiff/internal/geom"
	"nestdiff/internal/perfmodel"
	"nestdiff/internal/redist"
	"nestdiff/internal/scenario"
)

// TestPlansForChangeDigestFrozen pins the content and message order of
// every plan of a seeded 70-case churn run, for both candidate
// allocations of each adaptation point. The digests were taken at the
// commit before the separable enumeration replaced the pairwise block
// walk; the executed Alltoallv and the cost model both depend on this
// order, so a change here is a change of behaviour, not a refactor.
func TestPlansForChangeDigestFrozen(t *testing.T) {
	want := map[int]string{
		256:  "1f3fea9f1f0f37c9",
		1024: "1e883b487e688eaf",
	}
	for _, cores := range []int{256, 1024} {
		t.Run(fmt.Sprintf("p%d", cores), func(t *testing.T) {
			if got := churnPlanDigest(t, cores); got != want[cores] {
				t.Fatalf("plan digest at %d cores = %s, frozen %s", cores, got, want[cores])
			}
		})
	}
}

// churnPlanDigest walks scenario.Generate's default 70 cases the way
// core.Tracker does under the diffusion strategy, and hashes the plans
// from the current allocation to both the diffusion and the scratch
// candidate at every adaptation point.
func churnPlanDigest(t *testing.T, cores int) string {
	t.Helper()
	px, py := geom.NearSquareFactors(cores)
	g := geom.NewGrid(px, py)
	oracle := perfmodel.DefaultOracle()
	model, err := perfmodel.Profile(oracle, perfmodel.DefaultSampleDomains(), perfmodel.DefaultProcSizes())
	if err != nil {
		t.Fatal(err)
	}
	cfg := scenario.DefaultSyntheticConfig()
	cfg.Seed = 2607
	sets, err := scenario.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const ratio, elemBytes = 3, 4096
	weightsOf := func(set scenario.Set) (map[int]float64, map[int][2]int) {
		w, sizes := map[int]float64{}, map[int][2]int{}
		share := max(1, g.Size()/len(set))
		for _, n := range set {
			nx, ny := n.FineSize(ratio)
			p, err := model.Predict(nx, ny, share)
			if err != nil {
				t.Fatal(err)
			}
			w[n.ID], sizes[n.ID] = p, [2]int{nx, ny}
		}
		return w, sizes
	}

	h := fnv.New64a()
	put := func(vs ...int) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	w0, _ := weightsOf(sets[0])
	cur, err := alloc.Scratch(g, w0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(sets); i++ {
		w, sizes := weightsOf(sets[i])
		d := scenario.DiffSets(sets[i-1], sets[i])
		ch := alloc.Change{Deleted: d.Deleted, Retained: map[int]float64{}, Added: map[int]float64{}}
		for _, id := range d.Retained {
			ch.Retained[id] = w[id]
		}
		for _, id := range d.Added {
			ch.Added[id] = w[id]
		}
		diff, err := alloc.Diffusion(g, cur, ch)
		if err != nil {
			t.Fatal(err)
		}
		scr, err := alloc.Scratch(g, w)
		if err != nil {
			t.Fatal(err)
		}
		for _, next := range []*alloc.Allocation{diff, scr} {
			plans, err := redist.PlansForChange(g, cur.Rects, next.Rects, sizes, elemBytes)
			if err != nil {
				t.Fatal(err)
			}
			put(len(plans))
			for _, p := range plans {
				put(p.NestID, len(p.Msgs))
				for _, m := range p.Msgs {
					put(m.From, m.To, m.Bytes)
				}
				put(p.LocalBytes, p.TotalBytes)
			}
		}
		cur = diff
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
