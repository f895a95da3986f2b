package meta

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzCorpusIndex decodes arbitrary bytes into a vector corpus plus a query
// and checks the invariants the shortlisting path relies on: non-finite
// components are rejected with an error (never a wrong answer), and on
// finite input — zero vectors, exact duplicates, extreme magnitudes
// included — TopK returns exactly the k nearest under (distance, id).
func FuzzCorpusIndex(f *testing.F) {
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0}, uint8(3))
	// Two identical vectors plus a query: duplicate/tie territory.
	dup := make([]byte, 1+3*8)
	dup[0] = 0 // dim 1
	binary.LittleEndian.PutUint64(dup[1:], math.Float64bits(1.5))
	binary.LittleEndian.PutUint64(dup[9:], math.Float64bits(1.5))
	binary.LittleEndian.PutUint64(dup[17:], math.Float64bits(-2.0))
	f.Add(dup, uint8(2))
	// A NaN component: construction must reject it.
	nan := make([]byte, 1+2*8)
	nan[0] = 0
	binary.LittleEndian.PutUint64(nan[1:], math.Float64bits(math.NaN()))
	binary.LittleEndian.PutUint64(nan[9:], math.Float64bits(0))
	f.Add(nan, uint8(1))

	f.Fuzz(func(t *testing.T, data []byte, k uint8) {
		if len(data) == 0 {
			return
		}
		dim := 1 + int(data[0])%8
		data = data[1:]
		var floats []float64
		for len(data) >= 8 && len(floats) < (128+1)*dim {
			floats = append(floats, math.Float64frombits(binary.LittleEndian.Uint64(data[:8])))
			data = data[8:]
		}
		if len(floats) < 2*dim {
			return // need at least one vector and one query
		}
		nvec := len(floats)/dim - 1
		vecs := make([][]float64, nvec)
		for i := range vecs {
			vecs[i] = floats[i*dim : (i+1)*dim]
		}
		query := floats[nvec*dim : (nvec+1)*dim]

		badVec := false
		for _, v := range vecs {
			if !finiteVec(v) {
				badVec = true
			}
		}
		ix, err := NewCorpusIndex(vecs, IndexOptions{})
		if badVec {
			if err == nil {
				t.Fatal("index accepted a non-finite vector")
			}
			return
		}
		if err != nil {
			t.Fatalf("rejected finite corpus: %v", err)
		}
		kk := 1 + int(k)%(nvec+2)
		nn, err := ix.TopK(query, kk)
		if !finiteVec(query) {
			if err == nil {
				t.Fatal("query accepted a non-finite component")
			}
			return
		}
		if err != nil {
			t.Fatalf("rejected finite query: %v", err)
		}
		if err := checkTopK(vecs, query, kk, nn); err != nil {
			t.Fatal(err)
		}
	})
}
