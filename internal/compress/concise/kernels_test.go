package concise

import (
	"math/rand"
	"testing"

	"repro/internal/bitvec"
)

// randVec builds a vector of n bits at roughly the given density.
func randVec(n int, density float64, rng *rand.Rand) *bitvec.Vector {
	v := bitvec.New(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < density {
			v.Set(i)
		}
	}
	return v
}

// kernelFixtures returns column sets spanning fill-heavy and literal-heavy
// shapes, including awkward lengths around the 31-bit group boundary.
func kernelFixtures(t *testing.T) [][]*bitvec.Vector {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	var sets [][]*bitvec.Vector
	for _, n := range []int{0, 1, 31, 62, 63, 1000, 4096, 10_007} {
		for _, density := range []float64{0, 0.01, 0.05, 0.3, 0.9, 1} {
			cols := make([]*bitvec.Vector, 4)
			for i := range cols {
				cols[i] = randVec(n, density, rng)
			}
			sets = append(sets, cols)
		}
	}
	// A mixed-density set: the run-merge must handle fills against literals.
	mixed := []*bitvec.Vector{
		randVec(5000, 0.01, rng), randVec(5000, 0.5, rng),
		bitvec.NewOnes(5000), bitvec.New(5000),
	}
	return append(sets, mixed)
}

func TestKernelsAgainstDenseReference(t *testing.T) {
	for si, cols := range kernelFixtures(t) {
		bms := make([]*Bitmap, len(cols))
		for i, v := range cols {
			bms[i] = Compress(v)
		}
		n := cols[0].Len()

		// IntersectCount == dense cascade.
		if got, want := IntersectCount(bms...), bitvec.IntersectCount(cols...); got != want {
			t.Fatalf("set %d: IntersectCount = %d, want %d", si, got, want)
		}

		// IntersectCountAbove mirrors the dense contract for a tau sweep.
		exact := bitvec.IntersectCount(cols...)
		for _, tau := range []int{-1, 0, exact - 1, exact, exact + 1, n} {
			gc, ga := IntersectCountAbove(tau, bms...)
			if wantAbove := exact > tau; ga != wantAbove {
				t.Fatalf("set %d tau %d: above=%v, want %v", si, tau, ga, wantAbove)
			} else if ga && gc != exact {
				t.Fatalf("set %d tau %d: count=%d, want %d", si, tau, gc, exact)
			}
		}
	}
}
