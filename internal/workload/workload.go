// Package workload defines the benchmark and production workloads of the
// paper's evaluation (Table 2), the Twitter INSERT-ratio variants of the
// case study (Table 5), their SQL query streams, and the workload
// characterization pipeline (Section 6.2) that turns a SQL stream into the
// meta-feature vector the meta-learner's static weights are computed from.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dbsim"
)

// QueryKind classifies a query template by its dominant operation.
type QueryKind int

const (
	// PointSelect is a primary-key lookup.
	PointSelect QueryKind = iota
	// RangeSelect scans a key range (possibly with aggregation).
	RangeSelect
	// Update modifies existing rows.
	Update
	// Insert adds rows.
	Insert
	// Delete removes rows.
	Delete
	// Join reads across multiple tables.
	Join
)

// Template is a parameterized SQL query with its relative frequency in the
// workload mix and a resource-cost level used to label the random-forest
// training corpus (the paper classifies queries by log-discretized resource
// cost, Section 6.2).
type Template struct {
	// SQL is the query text with ? placeholders for scalars.
	SQL string
	// Kind is the dominant operation.
	Kind QueryKind
	// Weight is the relative frequency in the mix.
	Weight float64
	// CostLevel is the log-discretized resource-cost label in [0, 4].
	CostLevel int
}

// Workload couples a named query mix with the performance profile the
// simulator consumes.
type Workload struct {
	// Name identifies the workload (Table 2 names, plus variants).
	Name string
	// Profile is the simulator-facing performance model.
	Profile dbsim.WorkloadProfile
	// Templates is the query mix.
	Templates []Template
	// StatementsPerTxn is how many statements a client transaction bundles
	// (18 for sysbench oltp_read_write, ~8 for TPC-C's dominant profiles,
	// 1 for the point-access workloads).
	StatementsPerTxn int
}

// GenerateTransactions samples n transaction-shaped statement groups, each
// StatementsPerTxn long (minimum 1) — the unit the replayer commits
// atomically when driving a transactional engine.
func (w Workload) GenerateTransactions(n int, rng *rand.Rand) [][]string {
	per := w.StatementsPerTxn
	if per < 1 {
		per = 1
	}
	out := make([][]string, n)
	for i := range out {
		out[i] = w.Generate(per, rng)
	}
	return out
}

// ReadWriteRatio returns reads:writes of the template mix as a single
// fraction reads/(reads+writes), computed from template weights.
func (w Workload) ReadWriteRatio() float64 {
	var r, wr float64
	for _, t := range w.Templates {
		switch t.Kind {
		case Update, Insert, Delete:
			wr += t.Weight
		default:
			r += t.Weight
		}
	}
	if r+wr == 0 {
		return 0
	}
	return r / (r + wr)
}

const gb = int64(1) << 30

// Sysbench returns the SYSBENCH oltp_read_write workload at the given data
// size (the paper uses 10, 30 and 100 GB; 150 tables). R/W ratio 7:2,
// 64 threads, 21K txn/s request rate (Table 2).
func Sysbench(sizeGB int) Workload {
	return Workload{
		Name: fmt.Sprintf("sysbench-%dg", sizeGB),
		Profile: dbsim.WorkloadProfile{
			Name:             fmt.Sprintf("sysbench-%dg", sizeGB),
			DataBytes:        int64(sizeGB) * gb,
			Threads:          64,
			ReadRatio:        7.0 / 9.0,
			RequestRate:      21000,
			CPUMsPerTxn:      1.45,
			PagesPerTxn:      40,
			WriteBytesPerTxn: 2500,
			TablesTouched:    150,
			HitExponent:      0.040,
			TmpTableRatio:    0.05,
		},
		Templates:        sysbenchTemplates(),
		StatementsPerTxn: 18,
	}
}

// TPCC returns the TPC-C workload at the given warehouse count (the paper
// uses 200 and 10000 warehouses, plus the Table 7 sweep). R/W 19:10,
// 56 threads, 2K txn/s.
func TPCC(warehouses int) Workload {
	return Workload{
		Name: fmt.Sprintf("tpcc-%dw", warehouses),
		Profile: dbsim.WorkloadProfile{
			Name:             fmt.Sprintf("tpcc-%dw", warehouses),
			DataBytes:        TPCCSizeBytes(warehouses),
			Threads:          56,
			ReadRatio:        19.0 / 29.0,
			RequestRate:      2000,
			CPUMsPerTxn:      19.3,
			PagesPerTxn:      200,
			WriteBytesPerTxn: 6000,
			TablesTouched:    9,
			HitExponent:      0.035,
			TmpTableRatio:    0.10,
		},
		Templates:        tpccTemplates(),
		StatementsPerTxn: 8,
	}
}

// TPCCSizeBytes maps a warehouse count to on-disk bytes, interpolating the
// sizes the paper reports in Table 7 (100wh=7.29G ... 1000wh=117.06G) and
// Section 7 (200wh=13G footprint on instance A, 10000wh=100G working set).
func TPCCSizeBytes(warehouses int) int64 {
	pts := []struct {
		wh   float64
		size float64 // GB
	}{
		{100, 7.29}, {200, 16.26}, {500, 35.26}, {800, 56.59}, {1000, 117.06}, {10000, 1000},
	}
	w := float64(warehouses)
	if w <= pts[0].wh {
		return int64(pts[0].size / pts[0].wh * w * float64(gb))
	}
	for i := 1; i < len(pts); i++ {
		if w <= pts[i].wh {
			f := (w - pts[i-1].wh) / (pts[i].wh - pts[i-1].wh)
			sz := pts[i-1].size + f*(pts[i].size-pts[i-1].size)
			return int64(sz * float64(gb))
		}
	}
	return int64(pts[len(pts)-1].size / pts[len(pts)-1].wh * w * float64(gb))
}

// TPCC100G is the 100GB TPC-C setting used in Sections 7.2.1 and 7.5
// (10000 warehouses in the paper's loader; the simulator only needs the
// footprint).
func TPCC100G() Workload {
	w := TPCC(10000)
	w.Profile.DataBytes = 100 * gb
	return w
}

// Sysbench100G is the 100GB SYSBENCH setting of Section 7.2.1.
func Sysbench100G() Workload { return Sysbench(100) }

// Twitter returns the Twitter workload (OLTP-Bench): 29GB, 512 threads,
// R/W 116:1, 30K txn/s.
func Twitter() Workload {
	return twitterWithInsertRatio("twitter", 1.0/117.0)
}

// TwitterVariant returns the case-study variants W1..W5 (Table 5), built by
// increasing the INSERT ratio of the target Twitter workload: R/W ratios
// 32:1, 19:1, 14:1, 11:1, 9:1.
func TwitterVariant(i int) Workload {
	ratios := map[int]float64{
		1: 1.0 / 33.0,
		2: 1.0 / 20.0,
		3: 1.0 / 15.0,
		4: 1.0 / 12.0,
		5: 1.0 / 10.0,
	}
	r, ok := ratios[i]
	if !ok {
		panic(fmt.Sprintf("workload: no Twitter variant %d", i))
	}
	return twitterWithInsertRatio(fmt.Sprintf("twitter-w%d", i), r)
}

func twitterWithInsertRatio(name string, insertFrac float64) Workload {
	// More inserts shift the profile: lower read ratio, more redo bytes,
	// slightly higher CPU (index maintenance). The response-surface shift
	// this produces is what the case study's base-learner similarity
	// ordering (W1 closest ... W5 farthest) measures.
	readRatio := 1 - insertFrac
	return Workload{
		Name: name,
		Profile: dbsim.WorkloadProfile{
			Name:             name,
			DataBytes:        29 * gb,
			Threads:          512,
			ReadRatio:        readRatio,
			RequestRate:      30000,
			CPUMsPerTxn:      0.36 * (1 + 1.5*insertFrac),
			PagesPerTxn:      8 * (1 + insertFrac),
			WriteBytesPerTxn: 500,
			TablesTouched:    5,
			HitExponent:      0.020 + 0.08*insertFrac,
			TmpTableRatio:    0.01,
		},
		Templates:        twitterTemplates(insertFrac),
		StatementsPerTxn: 1,
	}
}

// Hotel returns the Hotel Booking production workload: 14GB, 256 threads,
// R/W 19:1; the request rate follows the clients (we model the observed
// average as 12K txn/s).
func Hotel() Workload {
	return Workload{
		Name: "hotel",
		Profile: dbsim.WorkloadProfile{
			Name:             "hotel",
			DataBytes:        14 * gb,
			Threads:          256,
			ReadRatio:        19.0 / 20.0,
			RequestRate:      12000,
			CPUMsPerTxn:      1.56,
			PagesPerTxn:      25,
			WriteBytesPerTxn: 1500,
			TablesTouched:    12,
			HitExponent:      0.030,
			TmpTableRatio:    0.15,
		},
		Templates:        hotelTemplates(),
		StatementsPerTxn: 3,
	}
}

// Sales returns the Sales production workload: 10GB, 256 threads,
// R/W 154:1 (modeled request rate 18K txn/s).
func Sales() Workload {
	return Workload{
		Name: "sales",
		Profile: dbsim.WorkloadProfile{
			Name:             "sales",
			DataBytes:        10 * gb,
			Threads:          256,
			ReadRatio:        154.0 / 155.0,
			RequestRate:      18000,
			CPUMsPerTxn:      1.07,
			PagesPerTxn:      12,
			WriteBytesPerTxn: 800,
			TablesTouched:    20,
			HitExponent:      0.025,
			TmpTableRatio:    0.20,
		},
		Templates:        salesTemplates(),
		StatementsPerTxn: 2,
	}
}

// Five returns the paper's five evaluation workloads in Figure 3 order.
func Five() []Workload {
	return []Workload{Sysbench(10), Twitter(), TPCC(200), Hotel(), Sales()}
}

// WithRequestRate returns a copy of w with the client request rate replaced
// (used by the Figure 8 sensitivity sweep).
func (w Workload) WithRequestRate(rate float64) Workload {
	w.Profile.RequestRate = rate
	return w
}

// MetaFeatureDistance is the Euclidean distance between two meta-feature
// vectors (used for the static weights, Eq. 8, and Table 5's reporting).
func MetaFeatureDistance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("workload: meta-feature dimension mismatch")
	}
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
