package pda

import (
	"reflect"
	"testing"

	"nestdiff/internal/geom"
	"nestdiff/internal/wrfsim"
)

// decodeDecomposition turns fuzz bytes into a decomposition case: the WRF
// process grid (px, py each in 1…8), the number of analysis ranks
// (1 ≤ N ≤ px·py), the parent steps to run, whether QCLOUD alone is
// aggregated, and the storms on a 96x72 model, five bytes per cell.
func decodeDecomposition(data []byte) (pg geom.Grid, ranks, steps int, qcloudOnly bool, cells []wrfsim.Cell) {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	pg = geom.NewGrid(1+int(at(0))%8, 1+int(at(1))%8)
	ranks = 1 + int(at(2))%pg.Size()
	steps = 1 + int(at(3))%48
	qcloudOnly = at(4)&1 == 1
	for i := 5; i+5 <= len(data) && len(cells) < 8; i += 5 {
		cells = append(cells, wrfsim.Cell{
			X:      float64(data[i]) * 96 / 256,
			Y:      float64(data[i+1]) * 72 / 256,
			VX:     (float64(data[i+4]) - 128) * 1e-5,
			Radius: 2 + float64(data[i+2]%7),
			Peak:   0.5 + float64(data[i+3])/255*2.5,
			Life:   4 * 3600,
		})
	}
	return pg, ranks, steps, qcloudOnly, cells
}

// FuzzPDADecomposition holds the parallel analysis to the serial one over
// every decomposition of the split files: on a 96x72 model with random
// storms, RunParallel over Model.Splits(pg) on N analysis ranks returns
// exactly the rectangles and clusters of Analyze, in the same order,
// whatever the WRF grid (ragged blocks included) and N ≤ P. The root sorts
// the gathered aggregates by a total order (QCLOUD, then rank), so the
// order in which the ranks' rows arrive cannot show. RunParallel over
// Model.SplitWindows — the ranks reading their blocks in place out of the
// model's fields, as the pipeline does — returns the same again.
func FuzzPDADecomposition(f *testing.F) {
	// px, py, N, steps, flags, then per cell: x, y, radius, peak, drift.
	f.Add([]byte{7, 5, 47, 39, 0, 53, 64, 3, 255, 128, 186, 178, 2, 200, 128})   // 8x6, one rank per file
	f.Add([]byte{6, 4, 11, 39, 0, 53, 64, 3, 255, 128, 186, 178, 2, 200, 128})   // ragged 7x5 over 12 ranks
	f.Add([]byte{0, 0, 0, 20, 0, 128, 128, 6, 255, 128})                         // one split file
	f.Add([]byte{7, 0, 4, 30, 1, 20, 100, 4, 180, 0, 230, 100, 4, 180, 255})     // 8x1, QCLOUD only
	f.Add([]byte{0, 7, 6, 30, 0, 128, 20, 5, 255, 128, 128, 230, 5, 255, 128})   // 1x8 over 7 ranks
	f.Add([]byte{7, 7, 63, 47, 0, 10, 10, 6, 255, 140, 85, 85, 6, 255, 120, 170, // 8x8, four storms
		170, 6, 255, 128, 245, 245, 6, 255, 128})
	f.Add([]byte{2, 4, 14, 1, 0}) // 3x5, no storms
	f.Fuzz(func(t *testing.T, data []byte) {
		pg, ranks, steps, qcloudOnly, cells := decodeDecomposition(data)
		cfg := wrfsim.DefaultConfig()
		cfg.NX, cfg.NY = 96, 72
		cfg.SpawnRate = 0
		m, err := wrfsim.NewModel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cells {
			if err := m.InjectCell(c); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < steps; i++ {
			m.Step()
		}
		splits := stormSplits(t, m, pg)
		opt := DefaultOptions()
		opt.QCloudOnly = qcloudOnly
		wantRects, wantClusters, err := Analyze(splits, opt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunParallel(analysisWorld(t, ranks), pg, memLoader(splits), opt)
		if err != nil {
			t.Fatalf("%v over %d ranks: %v", pg, ranks, err)
		}
		if !reflect.DeepEqual(res.Rects, wantRects) {
			t.Fatalf("%v over %d ranks: rects %v, serial %v", pg, ranks, res.Rects, wantRects)
		}
		if !reflect.DeepEqual(res.Clusters, wantClusters) {
			t.Fatalf("%v over %d ranks: clusters %+v, serial %+v", pg, ranks, res.Clusters, wantClusters)
		}
		windows, err := m.SplitWindows(nil, pg)
		if err != nil {
			t.Fatal(err)
		}
		inPlace, err := RunParallel(analysisWorld(t, ranks), pg, memLoader(windows), opt)
		if err != nil {
			t.Fatalf("%v over %d ranks, in place: %v", pg, ranks, err)
		}
		if !reflect.DeepEqual(inPlace.Rects, wantRects) || !reflect.DeepEqual(inPlace.Clusters, wantClusters) {
			t.Fatalf("%v over %d ranks, in place: rects %v clusters %+v, copies %v %+v",
				pg, ranks, inPlace.Rects, inPlace.Clusters, wantRects, wantClusters)
		}
		if inPlace.RootClock != res.RootClock {
			t.Fatalf("%v over %d ranks: root clock %v in place, %v over copies", pg, ranks, inPlace.RootClock, res.RootClock)
		}
	})
}
