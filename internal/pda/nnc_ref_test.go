package pda

import (
	"encoding/binary"
	"reflect"
	"testing"

	"nestdiff/internal/geom"
)

// referenceNNC is Algorithm 2 as a plain scan, the oracle for NNC's index:
// for each element in decreasing QCLOUD order, every member of every
// cluster in cluster order is tried at 1 hop, then at 2, and the test
// recomputes the cluster's mean from its members each time.
func referenceNNC(infos []SubdomainInfo, opt Options) []Cluster {
	var clusters []Cluster
	for _, element := range sortByQCloud(infos) {
		if element.QCloud < opt.QCloudThreshold || element.OLRFraction < opt.OLRFractionThreshold {
			continue
		}
		if idx := referenceFindCluster(clusters, element, opt); idx >= 0 {
			clusters[idx] = append(clusters[idx], element)
			continue
		}
		clusters = append(clusters, Cluster{element})
	}
	return clusters
}

// referenceFindCluster scans all clusters for a 1-hop member first, then —
// only if no 1-hop match exists anywhere — for a 2-hop member.
func referenceFindCluster(clusters []Cluster, element SubdomainInfo, opt Options) int {
	for _, hop := range []int{1, 2} {
		for i, cluster := range clusters {
			for _, member := range cluster {
				if referenceDistanceOK(element, member, cluster, hop, opt) {
					return i
				}
			}
		}
	}
	return -1
}

// referenceDistanceOK is the DISTANCE function of Algorithm 2: the element
// must be exactly hop away from the member, and adding it must not deviate
// the cluster's mean QCLOUD by more than the configured fraction.
func referenceDistanceOK(element, member SubdomainInfo, cluster Cluster, hop int, opt Options) bool {
	if hopDistance(element.Pos, member.Pos) != hop {
		return false
	}
	oldMean := cluster.MeanQCloud()
	newMean := (oldMean*float64(len(cluster)) + element.QCloud) / float64(len(cluster)+1)
	if oldMean == 0 {
		return true
	}
	dev := (newMean - oldMean) / oldMean
	if dev < 0 {
		dev = -dev
	}
	return dev <= opt.MeanDeviation
}

// decodeNNCCase turns fuzz bytes into aggregates on a grid of up to 20x16
// positions and the options to cluster them with. The header picks the
// grid, MeanDeviation (0, 0.05, 0.3 or 1) and whether QCloudThreshold is
// the default or 0, which lets zero aggregates in; each following four bytes
// are one aggregate: its position (ranks repeat when positions do), a
// QCLOUD drawn from a handful of levels (zero and equal values included)
// or spread finely, and its OLR fraction.
func decodeNNCCase(data []byte) ([]SubdomainInfo, Options) {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	px, py := 1+int(at(0))%20, 1+int(at(1))%16
	opt := DefaultOptions()
	opt.MeanDeviation = [...]float64{0, 0.05, 0.3, 1}[at(2)%4]
	if at(2)&4 != 0 {
		opt.QCloudThreshold = 0
	}
	var infos []SubdomainInfo
	for i := 3; i+4 <= len(data) && len(infos) < 400; i += 4 {
		rank := int(binary.LittleEndian.Uint16(data[i:])) % (px * py)
		q := float64(data[i+2])
		if q < 128 {
			q = float64(int(q) % 6) // 0, 1, …, 5: zeros and ties
		} else {
			q = (q - 128) / 16
		}
		infos = append(infos, SubdomainInfo{
			Rank:        rank,
			Pos:         geom.Point{X: rank % px, Y: rank / px},
			Bounds:      geom.NewRect(rank%px*6, rank/px*5, 6, 5),
			QCloud:      q,
			OLRFraction: float64(data[i+3]) / 255 * 0.02,
		})
	}
	return infos, opt
}

// FuzzNNC holds the indexed clustering to the scan it replaced: the same
// clusters, members in the same order, on random aggregates — duplicate
// ranks, equal and zero QCLOUDs, every deviation guard. NNC's index is
// reused from call to call, so a stale table shows here too.
func FuzzNNC(f *testing.F) {
	f.Add([]byte{7, 5, 2})
	f.Add([]byte{7, 5, 2, 9, 0, 200, 255, 10, 0, 190, 255, 17, 0, 180, 255, 26, 0, 3, 255, 40, 0, 250, 255})
	f.Add([]byte{19, 15, 1, 0, 0, 2, 255, 0, 0, 2, 255, 1, 0, 2, 255, 21, 0, 2, 255, 42, 0, 0, 255, 2, 0, 130, 0})
	f.Add([]byte{3, 3, 4, 5, 0, 5, 255, 6, 0, 4, 255, 9, 0, 3, 255, 10, 0, 4, 255, 15, 0, 5, 255})
	f.Add([]byte{19, 15, 3, 100, 1, 255, 255, 101, 1, 250, 255, 123, 1, 245, 255, 200, 0, 240, 255, 5, 0, 235, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		infos, opt := decodeNNCCase(data)
		in := append([]SubdomainInfo(nil), infos...)
		got, want := NNC(infos, opt), referenceNNC(infos, opt)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("MeanDeviation %g, %d aggregates:\nNNC       %+v\nreference %+v", opt.MeanDeviation, len(infos), got, want)
		}
		if !reflect.DeepEqual(infos, in) {
			t.Fatal("NNC reordered its input")
		}
	})
}
