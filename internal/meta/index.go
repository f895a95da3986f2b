package meta

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/obs"
)

// CorpusIndex answers exact nearest-neighbor queries over workload
// meta-feature vectors — the pre-filter that picks which base tasks a
// session weights. Distance is L2, the metric the static weights use
// (Eq. 8), so a query shortlists the base tasks the Epanechnikov kernel
// would rank closest.
//
// TopK is a linear scan through a bounded heap: every vector is measured
// once, and ties in distance break toward the lower task id. A Corpus builds
// an index per Activate and queries it once, so there is nothing for a
// search structure to amortize its construction over (DESIGN.md §10.1).
//
// Results are a deterministic function of the vectors and the query; a
// built index is read-only and safe for concurrent use.
type CorpusIndex struct {
	dim  int
	vecs [][]float64
	rec  obs.Recorder
}

// Neighbor is one nearest-neighbor result: the corpus id of the task and
// its L2 distance from the query.
type Neighbor struct {
	ID   int
	Dist float64
}

// IndexOptions configures a CorpusIndex.
type IndexOptions struct {
	// Recorder receives a per-query span (nil records nothing). Telemetry
	// only — query results never depend on it.
	Recorder obs.Recorder
}

// NewCorpusIndex builds an index over the given meta-feature vectors. The
// id of vector i is i. All vectors must share one dimensionality and be
// free of NaN/Inf components (callers group tasks by characterizer version
// before indexing; see Corpus).
func NewCorpusIndex(vecs [][]float64, opts IndexOptions) (*CorpusIndex, error) {
	ix := &CorpusIndex{rec: obs.OrNop(opts.Recorder)}
	if len(vecs) == 0 {
		return ix, nil
	}
	ix.dim = len(vecs[0])
	if ix.dim == 0 {
		return nil, fmt.Errorf("meta: index vector 0 is empty")
	}
	ix.vecs = make([][]float64, len(vecs))
	for i, v := range vecs {
		if len(v) != ix.dim {
			return nil, fmt.Errorf("meta: index vector %d has dim %d, want %d", i, len(v), ix.dim)
		}
		for j, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("meta: index vector %d component %d is %v", i, j, x)
			}
		}
		ix.vecs[i] = append([]float64(nil), v...)
	}
	return ix, nil
}

// TopK returns the k nearest vectors to q by L2 distance, ascending by
// (distance, id). k larger than the corpus returns everything; k <= 0
// returns nil. The query must match the indexed dimensionality and be
// NaN/Inf-free.
func (ix *CorpusIndex) TopK(q []float64, k int) ([]Neighbor, error) {
	if k <= 0 || len(ix.vecs) == 0 {
		return nil, nil
	}
	if len(q) != ix.dim {
		return nil, fmt.Errorf("meta: query dim %d, index dim %d", len(q), ix.dim)
	}
	for j, x := range q {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("meta: query component %d is %v", j, x)
		}
	}
	if k > len(ix.vecs) {
		k = len(ix.vecs)
	}
	if ix.rec.Enabled() {
		defer ix.rec.Span("meta.index_query", obs.Int("n", len(ix.vecs)), obs.Int("k", k)).End()
	}
	h := &knnHeap{k: k}
	for id, v := range ix.vecs {
		h.push(Neighbor{ID: id, Dist: distance(q, v)})
	}
	out := h.items
	sort.Slice(out, func(i, j int) bool { return worseNeighbor(out[j], out[i]) })
	return out, nil
}

// knnHeap tracks the k best (distance, id) pairs seen so far as a max-heap
// with the worst candidate on top. "Worse" orders by distance, then by id,
// so the retained set is the k smallest under that total order.
type knnHeap struct {
	k     int
	items []Neighbor
}

func worseNeighbor(a, b Neighbor) bool {
	if a.Dist != b.Dist {
		return a.Dist > b.Dist
	}
	return a.ID > b.ID
}

func (h *knnHeap) push(n Neighbor) {
	if len(h.items) < h.k {
		h.items = append(h.items, n)
		// Sift up.
		i := len(h.items) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if !worseNeighbor(h.items[i], h.items[parent]) {
				break
			}
			h.items[i], h.items[parent] = h.items[parent], h.items[i]
			i = parent
		}
		return
	}
	if !worseNeighbor(h.items[0], n) {
		return // candidate no better than current worst
	}
	h.items[0] = n
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < len(h.items) && worseNeighbor(h.items[l], h.items[worst]) {
			worst = l
		}
		if r < len(h.items) && worseNeighbor(h.items[r], h.items[worst]) {
			worst = r
		}
		if worst == i {
			return
		}
		h.items[i], h.items[worst] = h.items[worst], h.items[i]
		i = worst
	}
}
