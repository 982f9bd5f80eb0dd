package pda

import (
	"fmt"
	"math/rand"
	"testing"

	"nestdiff/internal/geom"
	"nestdiff/internal/wrfsim"
)

func randomInfos(rng *rand.Rand, n, px int) []SubdomainInfo {
	infos := make([]SubdomainInfo, n)
	for i := range infos {
		p := geom.Point{X: rng.Intn(px), Y: rng.Intn(px)}
		infos[i] = SubdomainInfo{
			Rank:        p.Y*px + p.X,
			Pos:         p,
			Bounds:      geom.NewRect(p.X*10, p.Y*10, 10, 10),
			QCloud:      rng.Float64() * 100,
			OLRFraction: 0.5,
		}
	}
	return infos
}

func BenchmarkNNC(b *testing.B) {
	for _, n := range []int{50, 200, 800} {
		b.Run(fmt.Sprintf("infos=%d", n), func(b *testing.B) {
			infos := randomInfos(rand.New(rand.NewSource(int64(n))), n, 40)
			opt := DefaultOptions()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				NNC(infos, opt)
			}
		})
	}
}

// BenchmarkAnalyzeSplit aggregates one split at a time, over block-sized
// copies (a split file) and over windows of the model's fields (the
// pipeline's in-place path).
func BenchmarkAnalyzeSplit(b *testing.B) {
	m := stormModel(b)
	pg := geom.NewGrid(8, 6)
	copies, err := m.Splits(pg)
	if err != nil {
		b.Fatal(err)
	}
	windows, err := m.SplitWindows(nil, pg)
	if err != nil {
		b.Fatal(err)
	}
	opt := DefaultOptions()
	for _, bc := range []struct {
		name   string
		splits []wrfsim.Split
	}{{"copies", copies}, {"windows", windows}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				AnalyzeSplit(bc.splits[i%len(bc.splits)], opt)
			}
		})
	}
}

func BenchmarkRunParallel(b *testing.B) {
	m := stormModel(b)
	pg := geom.NewGrid(8, 6)
	splits, err := m.Splits(pg)
	if err != nil {
		b.Fatal(err)
	}
	loader := memLoader(splits)
	opt := DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := analysisWorld(b, 6)
		if _, err := RunParallel(w, pg, loader, opt); err != nil {
			b.Fatal(err)
		}
	}
}
