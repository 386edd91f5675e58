package vector

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzDotKernel holds dotF4 to its contract: each of its four results is
// bit-identical to dotF on the same pair for every length 0–300 (multiples
// of four or not, so the loop has no tail to get wrong), and an operand
// shorter than the query — capped at its own length, as an arena view is —
// panics instead of being read past its end.
func FuzzDotKernel(f *testing.F) {
	for _, n := range []uint16{0, 1, 3, 4, 5, 63, 64, 255, 256, 257, 300} {
		f.Add(n, int64(n), uint8(n%5))
	}
	f.Fuzz(func(t *testing.T, n uint16, seed int64, short uint8) {
		n %= 301
		rng := rand.New(rand.NewSource(seed))
		draw := func() []float32 {
			v := make([]float32, n)
			for i := range v {
				// Mixed magnitudes make rounding order-sensitive.
				v[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3)))
			}
			return v
		}
		q, ops := draw(), [4][]float32{draw(), draw(), draw(), draw()}
		var got [4]float32
		got[0], got[1], got[2], got[3] = dotF4(q, ops[0], ops[1], ops[2], ops[3])
		for i, x := range ops {
			if want := dotF(q, x); math.Float32bits(got[i]) != math.Float32bits(want) {
				t.Fatalf("n=%d operand %d: dotF4 = %v (%#x), dotF = %v (%#x)",
					n, i, got[i], math.Float32bits(got[i]), want, math.Float32bits(want))
			}
		}
		if n == 0 {
			return
		}
		k := int(short % 4)
		ops[k] = ops[k][: n-1 : n-1]
		defer func() {
			if recover() == nil {
				t.Fatalf("n=%d: operand %d of length %d did not panic", n, k, n-1)
			}
		}()
		dotF4(q, ops[0], ops[1], ops[2], ops[3])
	})
}
