package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestUniformSampler(t *testing.T) {
	s := UniformSampler{Lo: -2, Hi: 4}
	rng := rand.New(rand.NewSource(8))
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		x := s.Sample(rng)
		if x < -2 || x > 4 {
			t.Fatalf("sample %v outside [-2,4]", x)
		}
		sum += x
	}
	if mean := sum / n; math.Abs(mean-1) > 0.05 {
		t.Errorf("uniform mean = %v, want ≈1", mean)
	}
}
