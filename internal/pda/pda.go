// Package pda implements the paper's parallel data analysis: Algorithm 1
// (per-split aggregation of QCLOUD where OLR ≤ 200, gathered at a root)
// and Algorithm 2 (the nearest-neighbour clustering variant with 1-hop
// then 2-hop passes and a 30% mean-deviation guard), producing the
// bounding rectangles that become nested-simulation regions of interest.
//
// A "hop" is the Chebyshev distance between subdomain positions in the
// WRF process grid — two subdomains are 1 hop apart when their split-file
// blocks touch (including diagonally). The simple baseline of Fig. 9(a)
// (2-hop criterion only, no mean-deviation guard) is also provided.
package pda

import (
	"cmp"
	"fmt"
	"slices"

	"nestdiff/internal/geom"
	"nestdiff/internal/wrfsim"
)

// Options are the detection thresholds of Algorithms 1 and 2.
type Options struct {
	// OLRThreshold is the upper OLR bound for organized cloud systems;
	// the paper uses 200 W/m² after Gu & Zhang [10].
	OLRThreshold float64
	// QCloudThreshold is the minimum aggregate QCLOUD for a subdomain to
	// enter clustering (Algorithm 2 line 3). The paper uses 0.005 in WRF's
	// kg/kg units; the default here is calibrated to the surrogate model's
	// units (same role, different scale).
	QCloudThreshold float64
	// OLRFractionThreshold is the minimum fraction of a subdomain under
	// the OLR threshold (0.005 in the paper).
	OLRFractionThreshold float64
	// MeanDeviation is the maximum relative change of a cluster's mean
	// QCLOUD when adding an element (0.30 in the paper), controlling
	// cluster growth.
	MeanDeviation float64
	// QCloudOnly disables the OLR criteria entirely: QCLOUD is aggregated
	// over every grid point and the OLR-fraction filter is bypassed. This
	// is the baseline §III argues against — "a combination of OLR and
	// QCLOUD better identifies such systems and precludes identification
	// of isolated cumulonimbus (as QCLOUD alone would do)".
	QCloudOnly bool
}

// DefaultOptions returns the paper's thresholds, with QCloudThreshold
// rescaled to the surrogate model's units.
func DefaultOptions() Options {
	return Options{
		OLRThreshold:         200,
		QCloudThreshold:      1.0,
		OLRFractionThreshold: 0.005,
		MeanDeviation:        0.30,
	}
}

// SubdomainInfo is one element of the qcloudinfo list: the aggregate
// cloud-cover information of one split file's subdomain.
type SubdomainInfo struct {
	Rank        int
	Pos         geom.Point // position in the Px×Py WRF process grid
	Bounds      geom.Rect  // subdomain extent in parent grid points
	QCloud      float64    // Σ QCLOUD over grid points with OLR ≤ threshold
	OLRFraction float64    // fraction of grid points with OLR ≤ threshold
}

// AnalyzeSplit performs lines 4–9 of Algorithm 1 on one split file:
// aggregate QCLOUD where OLR ≤ 200 and compute the OLR fraction. It walks
// the block's samples in row-major order, out of block-sized fields or out
// of the domain-sized fields a window split carries (wrfsim.Split.Window),
// so both give the same sums to the bit.
func AnalyzeSplit(s wrfsim.Split, opt Options) SubdomainInfo {
	info := SubdomainInfo{
		Rank:   s.Rank,
		Pos:    geom.Point{X: s.Rank % s.Px, Y: s.Rank / s.Px},
		Bounds: s.Bounds,
	}
	w, h := s.Bounds.Width(), s.Bounds.Height()
	qc, qStride := s.Window(s.QCloud)
	if opt.QCloudOnly {
		for y := 0; y < h; y++ {
			for _, q := range qc[y*qStride : y*qStride+w] {
				info.QCloud += q
			}
		}
		info.OLRFraction = 1 // bypass the fraction filter
		return info
	}
	olr, oStride := s.Window(s.OLR)
	if qStride == w && oStride == w { // rows back to back: one run
		w, h = w*h, 1
	}
	count := 0
	for y := 0; y < h; y++ {
		o := olr[y*oStride : y*oStride+w]
		q := qc[y*qStride : y*qStride+w][:len(o)]
		for i, v := range o {
			if v <= opt.OLRThreshold {
				info.QCloud += q[i]
				count++
			}
		}
	}
	area := s.Bounds.Area()
	if area > 0 {
		info.OLRFraction = float64(count) / float64(area)
	}
	return info
}

// Cluster is a contiguous region of strong cloud cover: a set of
// subdomains grouped by Algorithm 2.
type Cluster []SubdomainInfo

// MeanQCloud returns the mean aggregate QCLOUD over the cluster members.
func (c Cluster) MeanQCloud() float64 {
	if len(c) == 0 {
		return 0
	}
	sum := 0.0
	for _, e := range c {
		sum += e.QCloud
	}
	return sum / float64(len(c))
}

// BoundingRect returns the cluster's bounding rectangle in parent grid
// points (Algorithm 1 lines 16–19) — the nest region of interest.
func (c Cluster) BoundingRect() geom.Rect {
	var r geom.Rect
	for _, e := range c {
		r = r.Union(e.Bounds)
	}
	return r
}

// hopDistance is the Chebyshev distance between two subdomain positions.
func hopDistance(a, b geom.Point) int {
	dx := a.X - b.X
	if dx < 0 {
		dx = -dx
	}
	dy := a.Y - b.Y
	if dy < 0 {
		dy = -dy
	}
	if dx > dy {
		return dx
	}
	return dy
}

// byQCloud orders aggregates by decreasing QCLOUD (Algorithm 1 line 13),
// with rank as a deterministic tie-break.
func byQCloud(a, b SubdomainInfo) int {
	if a.QCloud != b.QCloud {
		if a.QCloud > b.QCloud {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.Rank, b.Rank)
}

// sortByQCloud returns a copy of infos in byQCloud order.
func sortByQCloud(infos []SubdomainInfo) []SubdomainInfo {
	out := append([]SubdomainInfo(nil), infos...)
	slices.SortStableFunc(out, byQCloud)
	return out
}

// SimpleNNC is the baseline of Fig. 9(a): a single pass that joins the
// first cluster with any member within 2 hops, with no mean-deviation
// guard. Its clusters can overlap in space.
func SimpleNNC(infos []SubdomainInfo, opt Options) []Cluster {
	var clusters []Cluster
	for _, element := range sortByQCloud(infos) {
		if element.QCloud < opt.QCloudThreshold || element.OLRFraction < opt.OLRFractionThreshold {
			continue
		}
		joined := false
		for i, cluster := range clusters {
			for _, member := range cluster {
				if hopDistance(element.Pos, member.Pos) <= 2 {
					clusters[i] = append(clusters[i], element)
					joined = true
					break
				}
			}
			if joined {
				break
			}
		}
		if !joined {
			clusters = append(clusters, Cluster{element})
		}
	}
	return clusters
}

// OverlappingPairs counts pairs of clusters whose bounding rectangles
// overlap — the defect of the simple baseline that Fig. 9 illustrates.
func OverlappingPairs(clusters []Cluster) int {
	n := 0
	for i := range clusters {
		for j := i + 1; j < len(clusters); j++ {
			if clusters[i].BoundingRect().Overlaps(clusters[j].BoundingRect()) {
				n++
			}
		}
	}
	return n
}

// Analyze runs the full serial pipeline of Algorithm 1 over a set of
// splits: per-split aggregation, sort, NNC, bounding rectangles. It
// returns the nest regions of interest and the clusters behind them.
func Analyze(splits []wrfsim.Split, opt Options) ([]geom.Rect, []Cluster, error) {
	if len(splits) == 0 {
		return nil, nil, fmt.Errorf("pda: no splits to analyze")
	}
	infos := make([]SubdomainInfo, 0, len(splits))
	for _, s := range splits {
		info := AnalyzeSplit(s, opt)
		if info.OLRFraction > 0 { // files without any OLR≤200 region send nothing
			infos = append(infos, info)
		}
	}
	clusters := NNC(infos, opt)
	rects := make([]geom.Rect, len(clusters))
	for i, c := range clusters {
		rects[i] = c.BoundingRect()
	}
	return rects, clusters, nil
}
