package pda

import (
	"fmt"
	"sync"

	"nestdiff/internal/geom"
	"nestdiff/internal/mpi"
	"nestdiff/internal/wrfsim"
)

// gatherScratch recycles the per-rank gather arenas across analysis
// rounds; every row handed out is decoded before the rank closure
// returns, so a pooled arena never outlives its call.
var gatherScratch = sync.Pool{New: func() any { return new(mpi.Scratch) }}

// infoWords is the wire size of one SubdomainInfo in the root gather:
// rank, bounds (x0, y0, w, h), qcloud, olrfraction.
const infoWords = 7

// appendInfo appends info's wire form to dst.
func appendInfo(dst []float64, info SubdomainInfo) []float64 {
	return append(dst,
		float64(info.Rank),
		float64(info.Bounds.X0), float64(info.Bounds.Y0),
		float64(info.Bounds.Width()), float64(info.Bounds.Height()),
		info.QCloud, info.OLRFraction,
	)
}

// appendInfos decodes the infos of one gathered buffer onto dst.
func appendInfos(dst []SubdomainInfo, buf []float64, px int) ([]SubdomainInfo, error) {
	if len(buf)%infoWords != 0 {
		return dst, fmt.Errorf("pda: gathered buffer of %d words is not a multiple of %d", len(buf), infoWords)
	}
	for i := 0; i < len(buf); i += infoWords {
		rank := int(buf[i])
		dst = append(dst, SubdomainInfo{
			Rank:        rank,
			Pos:         geom.Point{X: rank % px, Y: rank / px},
			Bounds:      geom.NewRect(int(buf[i+1]), int(buf[i+2]), int(buf[i+3]), int(buf[i+4])),
			QCloud:      buf[i+5],
			OLRFraction: buf[i+6],
		})
	}
	return dst, nil
}

// Result is the output of a parallel analysis, available at the root rank.
type Result struct {
	Rects    []geom.Rect
	Clusters []Cluster
	// RootClock is the root's virtual time when the analysis finished,
	// counted from the start of the analysis.
	RootClock float64
}

// perPointCost is the modelled seconds to read and aggregate one grid
// point of a split file (line 5–8 of Algorithm 1), charged to the
// analysis rank's virtual clock.
const perPointCost = 4e-9

// perPairCost is the modelled seconds per element pair examined by the
// O(k²) nearest-neighbour clustering, charged wherever clustering runs
// (the root in Algorithm 1; every rank plus the root merge in the
// parallel-NNC variant).
const perPairCost = 2e-8

// RunParallel executes Algorithm 1 on the analysis world w (its size is N,
// the number of analysis processes): the P split files of the WRF process
// grid wrfGrid are divided into N rectangular subsets, each rank loads and
// aggregates its subset via loader, the aggregates are gathered at world
// rank 0, and the root sorts, clusters (Algorithm 2) and forms nest
// rectangles. The returned Result is the root's; it is nil only on error.
//
// P must be divisible into rectangles over the N ranks in the sense of a
// block distribution (any N ≤ P works; uneven blocks are allowed).
func RunParallel(w *mpi.World, wrfGrid geom.Grid, loader func(rank int) (wrfsim.Split, error), opt Options) (*Result, error) {
	n := w.Size()
	if n > wrfGrid.Size() {
		return nil, fmt.Errorf("pda: %d analysis ranks for %d split files", n, wrfGrid.Size())
	}
	all, err := w.All()
	if err != nil {
		return nil, err
	}
	// Divide the Px×Py file grid into N rectangular subsets (Algorithm 1
	// lines 1–2): block-distribute file positions over a near-square
	// analysis grid.
	ax, ay := geom.NearSquareFactors(n)
	fileDist := geom.NewBlockDist(wrfGrid.Px, wrfGrid.Py, geom.NewRect(0, 0, ax, ay))

	var result *Result
	runErr := w.Run(func(r *mpi.Rank) {
		me := geom.Point{X: r.ID() % ax, Y: r.ID() / ax}
		myFiles := fileDist.BlockOf(me)

		// The payload and the root's gather rows come from a pooled
		// rank-local scratch arena, not per-row heap copies; they are
		// decoded before the closure returns, so the arena's lifetime
		// trivially covers theirs.
		s := gatherScratch.Get().(*mpi.Scratch)
		s.Reset()
		defer gatherScratch.Put(s)
		payload := s.Buf(myFiles.Area() * infoWords)
		points := 0
		myFiles.Cells(func(p geom.Point) {
			split, err := loader(wrfGrid.Rank(p))
			if err != nil {
				panic(fmt.Sprintf("load split %d: %v", wrfGrid.Rank(p), err))
			}
			points += split.Bounds.Area()
			info := AnalyzeSplit(split, opt)
			if info.OLRFraction > 0 { // files with no OLR≤200 region send nothing
				payload = appendInfo(payload, info)
			}
		})
		r.Compute(float64(points) * perPointCost)

		gathered := all.GathervInto(r, 0, payload, s)
		if r.ID() != 0 {
			return
		}
		ix := clusterIndexes.Get().(*clusterIndex)
		defer clusterIndexes.Put(ix)
		elems := ix.elems[:0]
		for _, buf := range gathered {
			var err error
			if elems, err = appendInfos(elems, buf, wrfGrid.Px); err != nil {
				panic(err.Error())
			}
		}
		ix.elems = elems
		clusters := ix.cluster(opt)
		// The sequential clustering runs entirely on the root — the
		// bottleneck the parallel-NNC variant removes. Its modelled charge
		// is Algorithm 2's quadratic scan, whatever the index saves.
		k := len(ix.elems)
		r.Compute(float64(k*k) * perPairCost)
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
