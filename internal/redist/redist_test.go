package redist

import (
	"math/rand"
	"testing"
	"testing/quick"

	"nestdiff/internal/alloc"
	"nestdiff/internal/geom"
	"nestdiff/internal/topology"
)

func testNet(t *testing.T, g geom.Grid) topology.Network {
	t.Helper()
	net, err := topology.NewTorus3D(g, topology.TorusDimsFor(g.Size()), topology.DefaultTorusParams())
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestBuildPlanFig3(t *testing.T) {
	// Fig. 3: a nest moves from a 4x4 sub-grid (ranks 0-15) to a disjoint
	// 2x2 sub-grid; each receiver gets its block from exactly 4 senders.
	g := geom.NewGrid(8, 8)
	tr := Transfer{
		NestID: 1, NX: 8, NY: 8,
		Old:       geom.NewRect(0, 0, 4, 4),
		New:       geom.NewRect(4, 4, 2, 2),
		ElemBytes: 8,
	}
	p, err := BuildPlan(g, tr)
	if err != nil {
		t.Fatal(err)
	}
	if p.LocalBytes != 0 {
		t.Fatalf("disjoint sub-grids should have no local bytes, got %d", p.LocalBytes)
	}
	if len(p.Msgs) != 16 {
		t.Fatalf("messages = %d, want 16 (4 receivers x 4 senders)", len(p.Msgs))
	}
	perReceiver := map[int]int{}
	var total int
	for _, m := range p.Msgs {
		perReceiver[m.To]++
		total += m.Bytes
	}
	for to, n := range perReceiver {
		if n != 4 {
			t.Errorf("receiver %d gets %d messages, want 4", to, n)
		}
	}
	if total != 8*8*8 {
		t.Fatalf("total bytes = %d, want %d", total, 8*8*8)
	}
	if p.TotalBytes != 8*8*8 {
		t.Fatalf("TotalBytes = %d", p.TotalBytes)
	}
}

func TestBuildPlanIdentityIsAllLocal(t *testing.T) {
	g := geom.NewGrid(8, 8)
	tr := Transfer{NestID: 1, NX: 30, NY: 20, Old: geom.NewRect(2, 2, 4, 3), New: geom.NewRect(2, 2, 4, 3), ElemBytes: 4}
	p, err := BuildPlan(g, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Msgs) != 0 {
		t.Fatalf("identity redistribution should have no remote messages, got %d", len(p.Msgs))
	}
	if p.LocalBytes != 30*20*4 {
		t.Fatalf("LocalBytes = %d, want %d", p.LocalBytes, 30*20*4)
	}
}

func TestBuildPlanConservesBytes(t *testing.T) {
	// Property: local + remote bytes always equal the full nest payload.
	r := rand.New(rand.NewSource(31))
	g := geom.NewGrid(16, 16)
	for trial := 0; trial < 200; trial++ {
		tr := Transfer{
			NestID:    trial,
			NX:        1 + r.Intn(100),
			NY:        1 + r.Intn(100),
			Old:       geom.NewRect(r.Intn(8), r.Intn(8), 1+r.Intn(8), 1+r.Intn(8)),
			New:       geom.NewRect(r.Intn(8), r.Intn(8), 1+r.Intn(8), 1+r.Intn(8)),
			ElemBytes: 1 + r.Intn(16),
		}
		p, err := BuildPlan(g, tr)
		if err != nil {
			t.Fatal(err)
		}
		remote := 0
		for _, m := range p.Msgs {
			if m.From == m.To {
				t.Fatalf("self message in plan: %+v", m)
			}
			if m.Bytes <= 0 {
				t.Fatalf("empty message in plan: %+v", m)
			}
			remote += m.Bytes
		}
		if remote+p.LocalBytes != p.TotalBytes {
			t.Fatalf("trial %d: %d remote + %d local != %d total",
				trial, remote, p.LocalBytes, p.TotalBytes)
		}
		if len(p.Msgs) != cap(p.Msgs) {
			t.Fatalf("trial %d: %d messages in a list allocated for %d", trial, len(p.Msgs), cap(p.Msgs))
		}
	}
}

func TestBuildPlanAllocatesPlanAndAxisTablesOnly(t *testing.T) {
	// 1 024 messages: the message list at its exact length plus the two
	// axis tables, never a grown-and-copied list.
	g := geom.NewGrid(64, 64)
	tr := Transfer{NestID: 1, NX: 600, NY: 600,
		Old: geom.NewRect(0, 0, 32, 32), New: geom.NewRect(16, 16, 32, 32), ElemBytes: 4096}
	var p Plan
	allocs := testing.AllocsPerRun(20, func() { p, _ = BuildPlan(g, tr) })
	if allocs > 4 {
		t.Fatalf("BuildPlan allocates %v times for a 32x32 -> 32x32 transfer, want <= 4", allocs)
	}
	if len(p.Msgs) == 0 || len(p.Msgs) != cap(p.Msgs) {
		t.Fatalf("plan has %d messages in a list of capacity %d", len(p.Msgs), cap(p.Msgs))
	}
}

func TestBuildPlanErrors(t *testing.T) {
	g := geom.NewGrid(8, 8)
	base := Transfer{NestID: 1, NX: 8, NY: 8, Old: geom.NewRect(0, 0, 2, 2), New: geom.NewRect(0, 0, 2, 2), ElemBytes: 8}
	bad := base
	bad.ElemBytes = 0
	if _, err := BuildPlan(g, bad); err == nil {
		t.Error("zero ElemBytes accepted")
	}
	bad = base
	bad.Old = geom.NewRect(7, 7, 4, 4)
	if _, err := BuildPlan(g, bad); err == nil {
		t.Error("out-of-grid sub-rect accepted")
	}
	bad = base
	bad.New = geom.Rect{}
	if _, err := BuildPlan(g, bad); err == nil {
		t.Error("empty sub-rect accepted")
	}
}

func TestMeasureOverlapAndHopBytes(t *testing.T) {
	g := geom.NewGrid(16, 16)
	net := testNet(t, g)
	// Grown in place by one column (anchored NW corner, as diffusion
	// produces): many bytes stay local.
	trShift := Transfer{NestID: 1, NX: 64, NY: 64,
		Old: geom.NewRect(0, 0, 8, 8), New: geom.NewRect(0, 0, 9, 8), ElemBytes: 8}
	pShift, err := BuildPlan(g, trShift)
	if err != nil {
		t.Fatal(err)
	}
	mShift := Measure(net, []Plan{pShift})
	// Moved to the opposite corner: nothing stays local.
	trFar := Transfer{NestID: 1, NX: 64, NY: 64,
		Old: geom.NewRect(0, 0, 8, 8), New: geom.NewRect(8, 8, 8, 8), ElemBytes: 8}
	pFar, err := BuildPlan(g, trFar)
	if err != nil {
		t.Fatal(err)
	}
	mFar := Measure(net, []Plan{pFar})

	if mShift.OverlapPercent <= mFar.OverlapPercent {
		t.Errorf("shifted overlap %.1f%% not above far overlap %.1f%%",
			mShift.OverlapPercent, mFar.OverlapPercent)
	}
	if mFar.OverlapPercent != 0 {
		t.Errorf("far overlap = %.1f%%, want 0", mFar.OverlapPercent)
	}
	if mShift.AvgHopBytes >= mFar.AvgHopBytes {
		t.Errorf("shifted avg hop-bytes %.2f not below far %.2f",
			mShift.AvgHopBytes, mFar.AvgHopBytes)
	}
	if mShift.Time >= mFar.Time {
		t.Errorf("shifted time %g not below far time %g", mShift.Time, mFar.Time)
	}
	if mShift.TotalBytes != 64*64*8 || mFar.TotalBytes != 64*64*8 {
		t.Error("total bytes wrong")
	}
	if mFar.MaxHops == 0 || mFar.Messages == 0 {
		t.Error("far move should produce remote traffic")
	}
}

func TestMeasureEmpty(t *testing.T) {
	g := geom.NewGrid(8, 8)
	net := testNet(t, g)
	m := Measure(net, nil)
	if m != (Metrics{}) {
		t.Fatalf("empty measure = %+v", m)
	}
}

func TestPlansForChangeDiffusionBeatsScratch(t *testing.T) {
	// End-to-end over the paper's Fig. 2 → Fig. 8 reconfiguration:
	// diffusion must deliver higher overlap and lower hop-bytes and time
	// than partition-from-scratch.
	g := geom.NewGrid(32, 32)
	net := testNet(t, g)
	old, err := alloc.Scratch(g, map[int]float64{1: 0.1, 2: 0.1, 3: 0.2, 4: 0.25, 5: 0.35})
	if err != nil {
		t.Fatal(err)
	}
	change := alloc.Change{
		Deleted:  []int{1, 2, 4},
		Retained: map[int]float64{3: 0.27, 5: 0.42},
		Added:    map[int]float64{6: 0.31},
	}
	diff, err := alloc.Diffusion(g, old, change)
	if err != nil {
		t.Fatal(err)
	}
	scr, err := alloc.Scratch(g, change.NewWeights())
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[int][2]int{3: {202, 349}, 5: {175, 175}, 6: {200, 200}}
	const elem = 8 * 4 // four float64 fields per point

	diffPlans, err := PlansForChange(g, old.Rects, diff.Rects, sizes, elem)
	if err != nil {
		t.Fatal(err)
	}
	scrPlans, err := PlansForChange(g, old.Rects, scr.Rects, sizes, elem)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffPlans) != 2 || len(scrPlans) != 2 {
		t.Fatalf("plan counts = %d, %d, want 2 retained nests", len(diffPlans), len(scrPlans))
	}
	md := Measure(net, diffPlans)
	ms := Measure(net, scrPlans)
	if md.OverlapPercent <= ms.OverlapPercent {
		t.Errorf("diffusion overlap %.1f%% <= scratch %.1f%%", md.OverlapPercent, ms.OverlapPercent)
	}
	if md.AvgHopBytes >= ms.AvgHopBytes {
		t.Errorf("diffusion avg hop-bytes %.2f >= scratch %.2f", md.AvgHopBytes, ms.AvgHopBytes)
	}
	if md.Time >= ms.Time {
		t.Errorf("diffusion time %g >= scratch time %g", md.Time, ms.Time)
	}
}

func TestPlansForChangeMissingSize(t *testing.T) {
	g := geom.NewGrid(8, 8)
	old := map[int]geom.Rect{1: geom.NewRect(0, 0, 4, 8)}
	nw := map[int]geom.Rect{1: geom.NewRect(4, 0, 4, 8)}
	if _, err := PlansForChange(g, old, nw, map[int][2]int{}, 8); err == nil {
		t.Fatal("missing size not reported")
	}
}

func TestPlansForChangeSkipsInsertedAndDeleted(t *testing.T) {
	g := geom.NewGrid(8, 8)
	old := map[int]geom.Rect{1: geom.NewRect(0, 0, 4, 8), 2: geom.NewRect(4, 0, 4, 8)}
	nw := map[int]geom.Rect{2: geom.NewRect(0, 0, 4, 8), 3: geom.NewRect(4, 0, 4, 8)}
	plans, err := PlansForChange(g, old, nw, map[int][2]int{2: {50, 50}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 1 || plans[0].NestID != 2 {
		t.Fatalf("plans = %+v, want only nest 2", plans)
	}
}

func TestMeasureSwitchedNetwork(t *testing.T) {
	// The overlap advantage must also register on a switched network,
	// where hop reduction is unavailable (§V-D: fist still gains 10%).
	g := geom.NewGrid(16, 16)
	net, err := topology.NewSwitched(g.Size(), 8, topology.DefaultSwitchedParams())
	if err != nil {
		t.Fatal(err)
	}
	near := Transfer{NestID: 1, NX: 64, NY: 64,
		Old: geom.NewRect(0, 0, 8, 8), New: geom.NewRect(0, 0, 9, 8), ElemBytes: 8}
	far := Transfer{NestID: 1, NX: 64, NY: 64,
		Old: geom.NewRect(0, 0, 8, 8), New: geom.NewRect(8, 8, 8, 8), ElemBytes: 8}
	pn, err := BuildPlan(g, near)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := BuildPlan(g, far)
	if err != nil {
		t.Fatal(err)
	}
	mn, mf := Measure(net, []Plan{pn}), Measure(net, []Plan{pf})
	// On a switched network the Alltoallv time is gated by the busiest
	// sender, which may ship its whole block in both cases; the overlap
	// gain is aggregate (fewer remote bytes and messages) and the time can
	// only improve (§V-D reports a smaller, 10%, gain on fist).
	if mn.RemoteBytes >= mf.RemoteBytes {
		t.Errorf("overlapping move remote bytes %d >= disjoint %d", mn.RemoteBytes, mf.RemoteBytes)
	}
	if mn.Time > mf.Time {
		t.Errorf("overlapping move time %g > disjoint move time %g on switched net", mn.Time, mf.Time)
	}
	if mn.OverlapPercent <= mf.OverlapPercent {
		t.Errorf("overlap percent %.1f <= %.1f", mn.OverlapPercent, mf.OverlapPercent)
	}
}

// Property (testing/quick): plans conserve bytes for arbitrary
// domain/sub-grid shapes.
func TestBuildPlanConservationQuick(t *testing.T) {
	g := geom.NewGrid(16, 16)
	f := func(nx, ny uint8, ox, oy, ow, oh, nx2, ny2, nw, nh uint8) bool {
		tr := Transfer{
			NestID:    1,
			NX:        1 + int(nx)%80,
			NY:        1 + int(ny)%80,
			Old:       geom.NewRect(int(ox)%8, int(oy)%8, 1+int(ow)%8, 1+int(oh)%8),
			New:       geom.NewRect(int(nx2)%8, int(ny2)%8, 1+int(nw)%8, 1+int(nh)%8),
			ElemBytes: 8,
		}
		p, err := BuildPlan(g, tr)
		if err != nil {
			return false
		}
		remote := 0
		for _, m := range p.Msgs {
			remote += m.Bytes
		}
		return remote+p.LocalBytes == p.TotalBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
