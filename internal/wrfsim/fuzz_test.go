package wrfsim

import (
	"bytes"
	"testing"

	"nestdiff/internal/geom"
)

// FuzzReadSplit hardens the split-file parser: arbitrary bytes must yield
// an error or a structurally valid split, never a panic or an implausible
// allocation.
func FuzzReadSplit(f *testing.F) {
	// Seed with a valid split and a few mutations.
	cfg := DefaultConfig()
	cfg.NX, cfg.NY = 24, 18
	cfg.SpawnRate = 0
	m, err := NewModel(cfg)
	if err != nil {
		f.Fatal(err)
	}
	m.Step()
	splits, err := m.Splits(geom.NewGrid(2, 2))
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSplit(&buf, splits[0]); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:10])
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte("NSDF garbage"))
	mutated := append([]byte(nil), valid...)
	mutated[8] ^= 0xff // corrupt an extent
	f.Add(mutated)

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadSplit(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Structural sanity of anything the parser accepts.
		if s.Bounds.Empty() {
			t.Fatal("accepted split with empty bounds")
		}
		if s.QCloud.NX != s.Bounds.Width() || s.QCloud.NY != s.Bounds.Height() {
			t.Fatal("accepted split with mismatched field extents")
		}
		if len(s.QCloud.Data) != len(s.OLR.Data) {
			t.Fatal("accepted split with mismatched payloads")
		}
	})
}
