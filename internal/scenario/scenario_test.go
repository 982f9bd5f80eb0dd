package scenario

import (
	"reflect"
	"testing"

	"nestdiff/internal/geom"
	"nestdiff/internal/wrfsim"
)

func TestGenerateDefaultMatchesPaperParameters(t *testing.T) {
	cfg := DefaultSyntheticConfig()
	sets, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != cfg.Steps+1 {
		t.Fatalf("%d sets for %d steps", len(sets), cfg.Steps)
	}
	for i, s := range sets {
		if len(s) < cfg.MinNests || len(s) > cfg.MaxNests {
			t.Fatalf("set %d has %d nests, want [%d, %d]", i, len(s), cfg.MinNests, cfg.MaxNests)
		}
		for _, n := range s {
			r := n.Region
			if !cfg.Domain.ContainsRect(r) {
				t.Fatalf("set %d nest %d region %v escapes domain", i, n.ID, r)
			}
			if r.Width() < cfg.MinSize || r.Width() > cfg.MaxSize ||
				r.Height() < cfg.MinSize || r.Height() > cfg.MaxSize {
				t.Fatalf("set %d nest %d size %v outside [%d, %d]", i, n.ID, r, cfg.MinSize, cfg.MaxSize)
			}
			// Fine sizes must land in the paper's 181–361 range (within a
			// ratio-3 rounding).
			fx, fy := n.FineSize(3)
			if fx < 180 || fx > 363 || fy < 180 || fy > 363 {
				t.Fatalf("fine size %dx%d outside paper range", fx, fy)
			}
		}
	}
}

func TestGenerateEveryTransitionRetainsANest(t *testing.T) {
	sets, err := Generate(DefaultSyntheticConfig())
	if err != nil {
		t.Fatal(err)
	}
	churn := 0
	for i := 1; i < len(sets); i++ {
		d := DiffSets(sets[i-1], sets[i])
		if len(d.Retained) == 0 {
			t.Fatalf("transition %d retains no nests", i)
		}
		churn += len(d.Deleted) + len(d.Added)
	}
	if churn == 0 {
		t.Fatal("generator produced no churn at all")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(DefaultSyntheticConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(DefaultSyntheticConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("set %d sizes differ", i)
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("set %d nest %d differs", i, j)
			}
		}
	}
}

func TestGenerateIDsNeverReused(t *testing.T) {
	sets, err := Generate(DefaultSyntheticConfig())
	if err != nil {
		t.Fatal(err)
	}
	lastSeen := map[int]int{} // id → last set index
	firstSeen := map[int]int{}
	for i, s := range sets {
		seen := map[int]bool{}
		for _, n := range s {
			if seen[n.ID] {
				t.Fatalf("set %d repeats ID %d", i, n.ID)
			}
			seen[n.ID] = true
			if _, ok := firstSeen[n.ID]; !ok {
				firstSeen[n.ID] = i
			}
			if last, ok := lastSeen[n.ID]; ok && last != i-1 {
				t.Fatalf("ID %d resurrected at set %d after disappearing at %d", n.ID, i, last)
			}
			lastSeen[n.ID] = i
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := DefaultSyntheticConfig()
	bad.Steps = 0
	if _, err := Generate(bad); err == nil {
		t.Error("zero steps accepted")
	}
	bad = DefaultSyntheticConfig()
	bad.MinNests = 0
	if _, err := Generate(bad); err == nil {
		t.Error("zero min nests accepted")
	}
	bad = DefaultSyntheticConfig()
	bad.Domain = geom.NewRect(0, 0, 50, 50)
	if _, err := Generate(bad); err == nil {
		t.Error("tiny domain accepted")
	}
	bad = DefaultSyntheticConfig()
	bad.PDelete = 1.0
	if _, err := Generate(bad); err == nil {
		t.Error("certain deletion accepted")
	}
	bad = DefaultSyntheticConfig()
	bad.MaxSize = bad.MinSize - 1
	if _, err := Generate(bad); err == nil {
		t.Error("inverted size range accepted")
	}
}

func TestDiffSets(t *testing.T) {
	old := Set{
		{ID: 1, Region: geom.NewRect(0, 0, 10, 10)},
		{ID: 2, Region: geom.NewRect(20, 0, 10, 10)},
		{ID: 3, Region: geom.NewRect(40, 0, 10, 10)},
	}
	nw := Set{
		{ID: 2, Region: geom.NewRect(22, 2, 10, 10)},
		{ID: 4, Region: geom.NewRect(60, 0, 10, 10)},
	}
	d := DiffSets(old, nw)
	if len(d.Deleted) != 2 || d.Deleted[0] != 1 || d.Deleted[1] != 3 {
		t.Fatalf("deleted = %v", d.Deleted)
	}
	if len(d.Retained) != 1 || d.Retained[0] != 2 {
		t.Fatalf("retained = %v", d.Retained)
	}
	if len(d.Added) != 1 || d.Added[0] != 4 {
		t.Fatalf("added = %v", d.Added)
	}
}

func TestSetHelpers(t *testing.T) {
	s := Set{{ID: 7, Region: geom.NewRect(0, 0, 10, 20)}}
	if ids := s.IDs(); len(ids) != 1 || ids[0] != 7 {
		t.Fatalf("IDs = %v", ids)
	}
	n, ok := s.ByID(7)
	if !ok || n.Region.Height() != 20 {
		t.Fatal("ByID failed")
	}
	if _, ok := s.ByID(9); ok {
		t.Fatal("ByID found missing nest")
	}
	nx, ny := n.FineSize(3)
	if nx != 30 || ny != 60 {
		t.Fatalf("FineSize = %dx%d", nx, ny)
	}
}

func TestMonsoonScheduleShape(t *testing.T) {
	cfg := DefaultMonsoonConfig()
	sched := MonsoonSchedule(cfg)
	if len(sched) == 0 {
		t.Fatal("empty schedule")
	}
	prev := -1
	for _, tc := range sched {
		if tc.AtStep < prev {
			t.Fatal("schedule not sorted by step")
		}
		prev = tc.AtStep
		if tc.AtStep < 0 || tc.AtStep >= cfg.Steps {
			t.Fatalf("genesis at step %d outside [0, %d)", tc.AtStep, cfg.Steps)
		}
		if tc.Cell.Radius <= 0 || tc.Cell.Peak <= 0 || tc.Cell.Life <= 0 {
			t.Fatalf("non-physical scheduled cell: %+v", tc.Cell)
		}
	}
	// Genesis rate sustains roughly cfg.Systems concurrent systems:
	// total ≈ Steps/meanLife · Systems ≈ 600/90·5 ≈ 33.
	if len(sched) < 15 || len(sched) > 80 {
		t.Fatalf("schedule has %d geneses, want a few dozen", len(sched))
	}
}

func TestMonsoonScheduleDeterministic(t *testing.T) {
	a := MonsoonSchedule(DefaultMonsoonConfig())
	b := MonsoonSchedule(DefaultMonsoonConfig())
	if len(a) != len(b) {
		t.Fatal("schedule length varies")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("schedule content varies")
		}
	}
}

func TestMonsoonScheduleDrivesModel(t *testing.T) {
	// The schedule must actually produce detectable storms in the model.
	mc := DefaultMonsoonConfig()
	mc.Steps = 200
	wcfg := wrfsim.DefaultConfig()
	wcfg.NX, wcfg.NY = mc.NX, mc.NY
	wcfg.SpawnRate = 0
	wcfg.Genesis = MonsoonSchedule(mc)
	m, err := wrfsim.NewModel(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	cellsSeen, lowOLRSeen := false, false
	for step := 0; step < mc.Steps; step++ {
		m.Step()
		cellsSeen = cellsSeen || len(m.Cells()) > 0
		if step%25 == 24 {
			for _, v := range m.OLR().Data {
				if v <= 200 {
					lowOLRSeen = true
					break
				}
			}
		}
	}
	if !cellsSeen {
		t.Fatal("no cells injected")
	}
	if !lowOLRSeen {
		t.Fatal("monsoon schedule produced no organized cloud systems (OLR<=200)")
	}
}

func TestCycloneScheduleTracksAcrossDomain(t *testing.T) {
	cfg := DefaultCycloneConfig()
	sched := CycloneSchedule(cfg)
	if len(sched) == 0 {
		t.Fatal("empty cyclone schedule")
	}
	var first, last *TimedCell
	for i := range sched {
		tc := &sched[i]
		if tc.Cell.Radius <= 0 || tc.Cell.Peak <= 0 || tc.Cell.Life <= 0 {
			t.Fatalf("non-physical cell %+v", tc.Cell)
		}
		if tc.Cell.Radius > 6 { // core renewals only
			if first == nil {
				first = tc
			}
			last = tc
		}
	}
	if first == nil || last == nil || first == last {
		t.Fatal("no core track found")
	}
	// The track must progress from entry toward exit.
	wantDX := (cfg.ToX - cfg.FromX) * float64(cfg.NX)
	gotDX := last.Cell.X - first.Cell.X
	if wantDX*gotDX <= 0 {
		t.Fatalf("core track direction wrong: moved %g, want sign of %g", gotDX, wantDX)
	}
}

func TestCycloneDrivesTrackingChurn(t *testing.T) {
	// The moving system must force nest delete/respawn churn: detect ROIs
	// over the run and count distinct nest identities.
	cfg := DefaultCycloneConfig()
	cfg.Steps = 300
	wcfg := wrfsim.DefaultConfig()
	wcfg.NX, wcfg.NY = cfg.NX, cfg.NY
	wcfg.SpawnRate = 0
	wcfg.DecayTau = 2400
	wcfg.Genesis = CycloneSchedule(cfg)
	m, err := wrfsim.NewModel(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	// Track the active core: the location of the QCLOUD maximum follows
	// the cyclone (the total-cloud centroid would not — older cloud
	// advects east with the ambient monsoon flow).
	var cores []float64
	for step := 0; step < cfg.Steps; step++ {
		m.Step()
		if step%50 == 49 {
			q := m.QCloud()
			best, bx := -1.0, 0
			for y := 0; y < q.NY; y++ {
				for x := 0; x < q.NX; x++ {
					if v := q.At(x, y); v > best {
						best, bx = v, x
					}
				}
			}
			if best > 0 {
				cores = append(cores, float64(bx))
			}
		}
	}
	if len(cores) < 3 {
		t.Fatal("cyclone produced no cloud")
	}
	if cores[len(cores)-1] >= cores[0]-20 {
		t.Fatalf("cyclone core did not track west: %v", cores)
	}
}

func TestBurstScheduleShape(t *testing.T) {
	cfg := DefaultBurstConfig()
	sched := BurstSchedule(cfg)
	if len(sched) != cfg.Bursts*cfg.CellsPerBurst {
		t.Fatalf("schedule has %d cells, want %d", len(sched), cfg.Bursts*cfg.CellsPerBurst)
	}
	// Cells cluster at the burst steps: the gap between consecutive
	// geneses within a burst is small, across bursts large.
	for b := 0; b < cfg.Bursts; b++ {
		start := (b * cfg.Steps) / cfg.Bursts
		for c := 0; c < cfg.CellsPerBurst; c++ {
			at := sched[b*cfg.CellsPerBurst+c].AtStep
			if at < start || at > start+20 {
				t.Fatalf("burst %d cell at step %d outside window [%d, %d]", b, at, start, start+20)
			}
		}
	}
}

func TestScriptedResolvesByName(t *testing.T) {
	mc := DefaultMonsoonConfig()
	mc.Steps, mc.Seed = 120, 9
	sched, nx, ny, err := Scripted("Monsoon", mc.Steps, mc.Seed)
	if err != nil || nx != mc.NX || ny != mc.NY || !reflect.DeepEqual(sched, MonsoonSchedule(mc)) {
		t.Fatalf("Scripted(monsoon) = %d entries on %dx%d, %v; want MonsoonSchedule on %dx%d", len(sched), nx, ny, err, mc.NX, mc.NY)
	}
	for _, name := range []string{"cyclone", "burst"} {
		if sched, _, _, err := Scripted(name, 300, 1); err != nil || len(sched) == 0 {
			t.Fatalf("Scripted(%s) = %d entries, %v", name, len(sched), err)
		}
	}
	if _, _, _, err := Scripted("cells", 10, 1); err == nil {
		t.Fatal("Scripted accepted a scenario with no script")
	}
}
