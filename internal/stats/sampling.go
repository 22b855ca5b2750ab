package stats

import (
	"math/rand"
)

// Sampler draws values from some one-dimensional distribution using the
// caller-supplied random source. All Stay-Away samplers are deterministic
// given the *rand.Rand: the predictor's "5 samples to model uncertainty"
// (§3.2.3) must be reproducible for experiments and templates.
type Sampler interface {
	Sample(rng *rand.Rand) float64
}

// UniformSampler draws uniformly from [Lo, Hi]. It models the
// maximum-uncertainty cold start before any trajectory has been observed.
type UniformSampler struct {
	Lo, Hi float64
}

var _ Sampler = UniformSampler{}

// Sample draws one value uniformly from [Lo, Hi].
func (s UniformSampler) Sample(rng *rand.Rand) float64 {
	return s.Lo + rng.Float64()*(s.Hi-s.Lo)
}
