package pda

import (
	"fmt"
	"sort"

	"nestdiff/internal/geom"
	"nestdiff/internal/mpi"
	"nestdiff/internal/wrfsim"
)

// This file implements the parallel nearest-neighbour clustering that the
// paper leaves as future work ("we would like to parallelize the NNC
// algorithm in future for simulations on larger number of processors",
// §III). The approach is local-cluster-then-merge:
//
//  1. each analysis rank clusters the subdomains of its own file block
//     with the sequential NNC (Algorithm 2);
//  2. the root gathers whole clusters instead of raw subdomain infos;
//  3. the root runs Algorithm 2 once more at *cluster* granularity
//     (strongest first, 1-hop before 2-hop, mean-deviation guard on the
//     joining cluster's peak), which both heals the storms the partition
//     cut apart and re-attaches fringe clusters exactly where the
//     sequential pass would have put their members.
//
// On well-separated storm systems the result equals the sequential
// algorithm's output; on adversarial boundary patterns the partitions may
// differ (cluster formation order differs), but the invariants — members
// are above threshold, each subdomain belongs to at most one cluster —
// always hold.

// peakOf returns the strongest member of a cluster.
func peakOf(c Cluster) SubdomainInfo {
	peak := c[0]
	for _, e := range c[1:] {
		if e.QCloud > peak.QCloud {
			peak = e
		}
	}
	return peak
}

// acceptsCluster reports whether dst would accept the cluster src under
// Algorithm 2's rule applied at cluster granularity: src's peak member
// lies within maxHop of a dst member and adding it would not deviate
// dst's mean beyond the guard.
func acceptsCluster(dst, src Cluster, maxHop int, opt Options) bool {
	if len(dst) == 0 || len(src) == 0 {
		return false
	}
	peak := peakOf(src)
	near := false
	for _, e := range dst {
		if hopDistance(e.Pos, peak.Pos) <= maxHop {
			near = true
			break
		}
	}
	if !near {
		return false
	}
	mean := dst.MeanQCloud()
	if mean == 0 {
		return true
	}
	newMean := (mean*float64(len(dst)) + peak.QCloud) / float64(len(dst)+1)
	dev := (newMean - mean) / mean
	if dev < 0 {
		dev = -dev
	}
	return dev <= opt.MeanDeviation
}

// MergeClusters combines clusters produced independently by different
// analysis ranks, re-running Algorithm 2's clustering logic at cluster
// granularity: clusters are processed in decreasing mean-QCLOUD order
// (ties by first member rank); each joins the first already-accepted
// cluster that accepts its peak at 1 hop, then at 2 hops — mirroring the
// 1-hop-before-2-hop preference of the sequential algorithm — and
// otherwise stands alone. On storm systems that the file-block partition
// cut apart, this reproduces the sequential NNC's output; only
// adversarial boundary patterns can differ (formation order differs).
func MergeClusters(clusters []Cluster, opt Options) []Cluster {
	sorted := append([]Cluster(nil), clusters...)
	sort.SliceStable(sorted, func(i, j int) bool {
		mi, mj := sorted[i].MeanQCloud(), sorted[j].MeanQCloud()
		if mi != mj {
			return mi > mj
		}
		return sorted[i][0].Rank < sorted[j][0].Rank
	})
	var out []Cluster
	for _, c := range sorted {
		idx := -1
	search:
		for _, maxHop := range []int{1, 2} {
			for i := range out {
				if acceptsCluster(out[i], c, maxHop, opt) {
					idx = i
					break search
				}
			}
		}
		if idx >= 0 {
			out[idx] = append(out[idx], c...)
		} else {
			out = append(out, c)
		}
	}
	return out
}

// encodeClusters flattens clusters for the root gather: for each cluster
// its member count followed by the members.
func encodeClusters(clusters []Cluster) []float64 {
	var out []float64
	for _, c := range clusters {
		out = append(out, float64(len(c)))
		for _, info := range c {
			out = appendInfo(out, info)
		}
	}
	return out
}

func decodeClusters(buf []float64, px int) ([]Cluster, error) {
	var out []Cluster
	i := 0
	for i < len(buf) {
		n := int(buf[i])
		i++
		if n <= 0 || i+n*infoWords > len(buf) {
			return nil, fmt.Errorf("pda: corrupt cluster encoding at word %d", i-1)
		}
		members, err := appendInfos(nil, buf[i:i+n*infoWords], px)
		if err != nil {
			return nil, err
		}
		out = append(out, Cluster(members))
		i += n * infoWords
	}
	return out, nil
}

// RunParallelNNC is the fully parallel analysis pipeline: like
// RunParallel, but each rank also clusters its own subdomains locally, so
// the root merges pre-formed clusters instead of clustering raw
// aggregates — removing the sequential clustering bottleneck for large
// rank counts. The Result is the root's.
func RunParallelNNC(w *mpi.World, wrfGrid geom.Grid, loader func(rank int) (wrfsim.Split, error), opt Options) (*Result, error) {
	n := w.Size()
	if n > wrfGrid.Size() {
		return nil, fmt.Errorf("pda: %d analysis ranks for %d split files", n, wrfGrid.Size())
	}
	all, err := w.All()
	if err != nil {
		return nil, err
	}
	ax, ay := geom.NearSquareFactors(n)
	fileDist := geom.NewBlockDist(wrfGrid.Px, wrfGrid.Py, geom.NewRect(0, 0, ax, ay))

	var result *Result
	runErr := w.Run(func(r *mpi.Rank) {
		me := geom.Point{X: r.ID() % ax, Y: r.ID() / ax}
		myFiles := fileDist.BlockOf(me)

		var infos []SubdomainInfo
		points := 0
		myFiles.Cells(func(p geom.Point) {
			split, err := loader(wrfGrid.Rank(p))
			if err != nil {
				panic(fmt.Sprintf("load split %d: %v", wrfGrid.Rank(p), err))
			}
			points += split.Bounds.Area()
			info := AnalyzeSplit(split, opt)
			if info.OLRFraction > 0 {
				infos = append(infos, info)
			}
		})
		local := NNC(infos, opt)
		// Local clustering is O(k²) in the rank's own subdomains; charge
		// it alongside the read.
		r.Compute(float64(points)*perPointCost + float64(len(infos)*len(infos))*perPairCost)

		// The root's gather rows come from a pooled rank-local scratch
		// arena, not per-row heap copies; they are decoded before the
		// closure returns, so the arena's lifetime trivially covers theirs.
		s := gatherScratch.Get().(*mpi.Scratch)
		s.Reset()
		defer gatherScratch.Put(s)
		gathered := all.GathervInto(r, 0, encodeClusters(local), s)
		if r.ID() != 0 {
			return
		}
		var clusters []Cluster
		for _, buf := range gathered {
			decoded, err := decodeClusters(buf, wrfGrid.Px)
			if err != nil {
				panic(err.Error())
			}
			clusters = append(clusters, decoded...)
		}
		clusters = MergeClusters(clusters, opt)
		// The root's merge is quadratic in *clusters*, not subdomains.
		r.Compute(float64(len(clusters)*len(clusters)) * perPairCost)
		rects := make([]geom.Rect, len(clusters))
		for i, c := range clusters {
			rects[i] = c.BoundingRect()
		}
		result = &Result{Rects: rects, Clusters: clusters, RootClock: r.Clock()}
	})
	if runErr != nil {
		return nil, runErr
	}
	return result, nil
}
