package pda

import (
	"slices"
	"sync"

	"nestdiff/internal/geom"
)

// NNC is Algorithm 2: elements (processed in decreasing QCLOUD order) join
// the first cluster containing a member at 1 hop; failing that — anywhere —
// at 2 hops (§V-A: "we check for 2 hop distance only if the list element
// is not within 1 hop from an existing cluster"), which keeps clusters
// disjoint in space; failing that, they found a new cluster. A cluster
// takes an element only if the element moves its mean QCLOUD by at most
// MeanDeviation. Sub-threshold elements are dropped. infos is not
// modified.
func NNC(infos []SubdomainInfo, opt Options) []Cluster {
	ix := clusterIndexes.Get().(*clusterIndex)
	defer clusterIndexes.Put(ix)
	ix.elems = append(ix.elems[:0], infos...)
	return ix.cluster(opt)
}

// clusterIndexes recycles the clustering state across analysis rounds.
var clusterIndexes = sync.Pool{New: func() any { return new(clusterIndex) }}

// clusterIndex runs Algorithm 2 without rescanning clusters. A table over
// the bounding box of the elements' positions lists, for every position,
// the elements already clustered there (head, then next), so the clusters
// with a member exactly h hops from an element are read off the 8h
// positions of the ring around it. Each cluster keeps its member count and
// a running QCLOUD sum, added in member order: the sum a rescan of the
// members would form, so the mean-deviation test sees the same bits.
// Among the ring's clusters that pass the test the lowest-numbered wins,
// which is the one the scan in cluster order would reach first.
type clusterIndex struct {
	elems []SubdomainInfo // the round's aggregates, sorted in place
	of    []int32         // cluster of each sorted element, -1 if dropped
	next  []int32         // 1 + the previous element clustered at the same position, 0 for none
	head  []int32         // per position: 1 + the last element clustered there, 0 for none
	count []int           // members per cluster
	sum   []float64       // QCLOUD sum per cluster, in member order
	box   geom.Rect       // the positions' bounding box: the table's extent
}

// cluster sorts ix.elems into byQCloud order and clusters them. The
// clusters share one freshly allocated backing array, each capped at its
// own length so that appending to one cannot overwrite the next.
func (ix *clusterIndex) cluster(opt Options) []Cluster {
	slices.SortStableFunc(ix.elems, byQCloud)
	ix.reset()
	for j, e := range ix.elems {
		ix.of[j] = -1
		if e.QCloud < opt.QCloudThreshold || e.OLRFraction < opt.OLRFractionThreshold {
			continue
		}
		c := ix.find(e, opt)
		if c < 0 {
			c = int32(len(ix.count))
			ix.count = append(ix.count, 0)
			ix.sum = append(ix.sum, 0)
		}
		ix.count[c]++
		ix.sum[c] += e.QCloud
		ix.of[j] = c
		cell := ix.cell(e.Pos)
		ix.next[j] = ix.head[cell]
		ix.head[cell] = int32(j + 1)
	}
	if len(ix.count) == 0 {
		return nil
	}
	members := make([]SubdomainInfo, 0, len(ix.elems))
	clusters := make([]Cluster, len(ix.count))
	for c, n := range ix.count {
		clusters[c] = members[len(members) : len(members) : len(members)+n]
		members = members[:len(members)+n]
	}
	for j, e := range ix.elems {
		if c := ix.of[j]; c >= 0 {
			clusters[c] = append(clusters[c], e)
		}
	}
	return clusters
}

// reset sizes the per-element slices and clears the table over the new
// elements' bounding box, keeping every backing array.
func (ix *clusterIndex) reset() {
	n := len(ix.elems)
	ix.of = slices.Grow(ix.of[:0], n)[:n]
	ix.next = slices.Grow(ix.next[:0], n)[:n]
	ix.count, ix.sum = ix.count[:0], ix.sum[:0]
	ix.box = geom.Rect{}
	for _, e := range ix.elems {
		ix.box = ix.box.Union(geom.NewRect(e.Pos.X, e.Pos.Y, 1, 1))
	}
	area := ix.box.Area()
	ix.head = slices.Grow(ix.head[:0], area)[:area]
	clear(ix.head)
}

// cell is the table slot of position p, which must lie in the box.
func (ix *clusterIndex) cell(p geom.Point) int {
	return (p.Y-ix.box.Y0)*ix.box.Width() + p.X - ix.box.X0
}

// find returns the cluster e joins, or -1: the lowest-numbered cluster with
// a member exactly 1 hop from e that passes the mean-deviation test, else
// the same at 2 hops.
func (ix *clusterIndex) find(e SubdomainInfo, opt Options) int32 {
	for hop := 1; hop <= 2; hop++ {
		best := int32(-1)
		for dy := -hop; dy <= hop; dy++ {
			step := 2 * hop // inside the ring's rows only its two ends
			if dy == -hop || dy == hop {
				step = 1
			}
			for dx := -hop; dx <= hop; dx += step {
				p := geom.Point{X: e.Pos.X + dx, Y: e.Pos.Y + dy}
				if !ix.box.Contains(p) {
					continue
				}
				for m := ix.head[ix.cell(p)]; m != 0; m = ix.next[m-1] {
					if c := ix.of[m-1]; (best < 0 || c < best) && ix.accepts(c, e.QCloud, opt) {
						best = c
					}
				}
			}
		}
		if best >= 0 {
			return best
		}
	}
	return -1
}

// accepts is Algorithm 2's DISTANCE test past the hop count: adding q must
// not move cluster c's mean QCLOUD by more than MeanDeviation of it.
func (ix *clusterIndex) accepts(c int32, q float64, opt Options) bool {
	n := ix.count[c]
	oldMean := ix.sum[c] / float64(n)
	newMean := (oldMean*float64(n) + q) / float64(n+1)
	if oldMean == 0 {
		return true
	}
	dev := (newMean - oldMean) / oldMean
	if dev < 0 {
		dev = -dev
	}
	return dev <= opt.MeanDeviation
}
