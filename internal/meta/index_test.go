package meta

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

func randVecs(n, dim int, seed int64, dupEvery int) [][]float64 {
	r := rand.New(rand.NewSource(seed))
	vecs := make([][]float64, n)
	for i := range vecs {
		if dupEvery > 0 && i > 0 && i%dupEvery == 0 {
			// Exact duplicate of an earlier vector: distance ties must
			// break toward the lower id.
			vecs[i] = append([]float64(nil), vecs[r.Intn(i)]...)
			continue
		}
		v := make([]float64, dim)
		for d := range v {
			v[d] = r.NormFloat64()
		}
		vecs[i] = v
	}
	return vecs
}

// checkTopK holds got to the definition of the k nearest of vecs to q: it
// has min(k, len(vecs)) distinct ids, each with its exact L2 distance,
// ascending by (distance, id), and no id left out sorts before the last one
// returned.
func checkTopK(vecs [][]float64, q []float64, k int, got []Neighbor) error {
	before := func(a, b Neighbor) bool {
		return a.Dist < b.Dist || (a.Dist == b.Dist && a.ID < b.ID)
	}
	want := min(k, len(vecs))
	if len(got) != want {
		return fmt.Errorf("returned %d neighbors, want %d", len(got), want)
	}
	in := make(map[int]bool, len(got))
	for i, nb := range got {
		if nb.ID < 0 || nb.ID >= len(vecs) || in[nb.ID] {
			return fmt.Errorf("neighbor %d: id %d out of range or repeated", i, nb.ID)
		}
		in[nb.ID] = true
		if d := distance(q, vecs[nb.ID]); math.Float64bits(nb.Dist) != math.Float64bits(d) {
			return fmt.Errorf("neighbor %d: id %d dist %v, want %v", i, nb.ID, nb.Dist, d)
		}
		if i > 0 && !before(got[i-1], nb) {
			return fmt.Errorf("neighbor %d %+v does not sort after %+v", i, nb, got[i-1])
		}
	}
	if len(got) == 0 {
		return nil
	}
	last := got[len(got)-1]
	for id, v := range vecs {
		if out := (Neighbor{ID: id, Dist: distance(q, v)}); !in[id] && before(out, last) {
			return fmt.Errorf("omitted %+v sorts before the last returned %+v", out, last)
		}
	}
	return nil
}

func TestCorpusIndexAgreesWithBruteForce(t *testing.T) {
	for _, n := range []int{1, 2, 5, 34, 100, 257} {
		for _, dim := range []int{1, 3, 33} {
			vecs := randVecs(n, dim, int64(n*1000+dim), 7)
			ix, err := NewCorpusIndex(vecs, IndexOptions{})
			if err != nil {
				t.Fatalf("n=%d dim=%d: %v", n, dim, err)
			}
			r := rand.New(rand.NewSource(int64(n + dim)))
			for q := 0; q < 20; q++ {
				query := make([]float64, dim)
				for d := range query {
					query[d] = r.NormFloat64()
				}
				if q%3 == 0 && n > 0 {
					// Query exactly on a corpus point: guaranteed tie
					// territory when duplicates exist.
					copy(query, vecs[r.Intn(n)])
				}
				for _, k := range []int{1, 2, 16, n, n + 5} {
					got, err := ix.TopK(query, k)
					if err != nil {
						t.Fatalf("TopK: %v", err)
					}
					if err := checkTopK(vecs, query, k, got); err != nil {
						t.Fatalf("n=%d dim=%d k=%d: %v", n, dim, k, err)
					}
				}
			}
		}
	}
}

func TestCorpusIndexRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewCorpusIndex([][]float64{{1, 2}, {3, bad}}, IndexOptions{}); err == nil {
			t.Fatalf("construction accepted component %v", bad)
		}
	}
	ix, err := NewCorpusIndex([][]float64{{1, 2}, {3, 4}}, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.TopK([]float64{1, math.NaN()}, 1); err == nil {
		t.Fatal("query accepted NaN component")
	}
	if _, err := ix.TopK([]float64{1}, 1); err == nil {
		t.Fatal("query accepted dim mismatch")
	}
}

func TestCorpusIndexMixedDims(t *testing.T) {
	if _, err := NewCorpusIndex([][]float64{{1, 2}, {3}}, IndexOptions{}); err == nil {
		t.Fatal("construction accepted mixed dimensionalities")
	}
	if _, err := NewCorpusIndex([][]float64{{}}, IndexOptions{}); err == nil {
		t.Fatal("construction accepted an empty vector")
	}
}

func TestCorpusIndexEdgeCases(t *testing.T) {
	empty, err := NewCorpusIndex(nil, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := empty.TopK([]float64{1}, 3); err != nil || got != nil {
		t.Fatalf("empty index: got %v, %v", got, err)
	}
	ix, err := NewCorpusIndex([][]float64{{0}, {1}, {2}}, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := ix.TopK([]float64{0.4}, 0); err != nil || got != nil {
		t.Fatalf("k=0: got %v, %v", got, err)
	}
	got, err := ix.TopK([]float64{0.4}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].ID != 0 || got[1].ID != 1 || got[2].ID != 2 {
		t.Fatalf("k clamp: got %v", got)
	}
}

// queryTrace runs a fixed battery of queries and formats the bit patterns of
// every distance, so any cross-GOMAXPROCS divergence — even in the last ulp —
// changes the trace.
func indexQueryTrace(t *testing.T) string {
	t.Helper()
	vecs := randVecs(300, 6, 99, 9)
	ix, err := NewCorpusIndex(vecs, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(123))
	out := ""
	for q := 0; q < 30; q++ {
		query := make([]float64, 6)
		for d := range query {
			query[d] = r.NormFloat64()
		}
		nn, err := ix.TopK(query, 12)
		if err != nil {
			t.Fatal(err)
		}
		for _, nb := range nn {
			out += fmt.Sprintf("%d:%x;", nb.ID, math.Float64bits(nb.Dist))
		}
		out += "\n"
	}
	return out
}

func TestCorpusIndexDeterminismAcrossGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t1 := indexQueryTrace(t)
	runtime.GOMAXPROCS(8)
	t8 := indexQueryTrace(t)
	runtime.GOMAXPROCS(prev)
	if t1 != t8 {
		t.Fatal("CorpusIndex query results differ between GOMAXPROCS=1 and GOMAXPROCS=8")
	}
}
