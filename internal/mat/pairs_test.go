package mat

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// pairPalette holds the values the CountPairs tests draw from: ties, both
// zeros, both infinities, subnormals, NaN and neighbours one ulp apart.
var pairPalette = []float64{
	math.Inf(-1), -math.MaxFloat64, -1, math.Copysign(0, -1), 0, 5e-324, 1e-310,
	0.5, math.Nextafter(0.5, 1), 1, math.MaxFloat64, math.Inf(1), math.NaN(),
}

// refCountPairs is the definition CountPairs is held to: every pair i < j,
// compared as floats.
func refCountPairs(a []float64) (gt, eq int) {
	for i := range a {
		for j := i + 1; j < len(a); j++ {
			if a[i] > a[j] {
				gt++
			}
			if a[i] == a[j] {
				eq++
			}
		}
	}
	return gt, eq
}

// padNaN copies v into a NaN-padded slice of the next multiple of 4.
func padNaN(v []float64) []float64 {
	a := make([]float64, (len(v)+3)&^3)
	for i := copy(a, v); i < len(a); i++ {
		a[i] = math.NaN()
	}
	return a
}

// TestCountPairsMatchesDoubleLoop holds CountPairs, on the vector kernel and
// forced onto its scalar loop, to the double loop at every length from 0 to
// 70 (every block remainder, many times over), at 129 and 200, and at both
// sides of the crossover, over palette draws and over continuous ones, each
// NaN-padded to a whole vector and as it is.
func TestCountPairsMatchesDoubleLoop(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	var ns []int
	for n := 0; n <= 70; n++ {
		ns = append(ns, n)
	}
	ns = append(ns, 129, 200, pairsCrossover-1, pairsCrossover+1)
	eachSIMDMode(func(mode string) {
		for _, n := range ns {
			pal := make([]float64, n)
			for i := range pal {
				pal[i] = pairPalette[r.Intn(len(pairPalette))]
			}
			norm := make([]float64, n)
			for i := range norm {
				norm[i] = r.NormFloat64()
			}
			for _, v := range [][]float64{pal, norm} {
				wantGT, wantEq := refCountPairs(v)
				for _, a := range [][]float64{padNaN(v), v} {
					if gt, eq := CountPairs(a); gt != wantGT || eq != wantEq {
						t.Fatalf("%s n=%d len=%d: (gt, eq) = (%d, %d), double loop (%d, %d)\n%v",
							mode, n, len(a), gt, eq, wantGT, wantEq, v)
					}
				}
			}
		}
	})
}

// FuzzCountPairs holds CountPairs, on both paths and NaN-padded or not, to
// the double loop over any values: one palette value per byte, or in raw
// mode one float64 per eight bytes, bit pattern as given.
func FuzzCountPairs(f *testing.F) {
	r := rand.New(rand.NewSource(22))
	for _, n := range []int{0, 1, 3, 4, 5, 8, 13, 64, 129} {
		pal := make([]byte, n)
		for i := range pal {
			pal[i] = byte(r.Intn(len(pairPalette)))
		}
		f.Add(pal, true)
		raw := make([]byte, 8*n)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(r.NormFloat64()))
		}
		f.Add(raw, false)
	}
	f.Fuzz(func(t *testing.T, data []byte, palette bool) {
		var v []float64
		if palette {
			for _, b := range data {
				v = append(v, pairPalette[int(b)%len(pairPalette)])
			}
		} else {
			for ; len(data) >= 8; data = data[8:] {
				v = append(v, math.Float64frombits(binary.LittleEndian.Uint64(data)))
			}
		}
		wantGT, wantEq := refCountPairs(v)
		eachSIMDMode(func(mode string) {
			for _, a := range [][]float64{padNaN(v), v} {
				if gt, eq := CountPairs(a); gt != wantGT || eq != wantEq {
					t.Fatalf("%s len=%d: (gt, eq) = (%d, %d), double loop (%d, %d)\n%v",
						mode, len(a), gt, eq, wantGT, wantEq, v)
				}
			}
		})
	})
}
