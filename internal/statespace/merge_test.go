package statespace

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mds"
	"repro/internal/metrics"
)

// bruteNearestStateByVector is the reference the ε-cell index must match:
// the index and vector distance of the first state in states whose vector
// is closest to vec, or (-1, 0) when states is empty or no state shares
// vec's dimension.
func bruteNearestStateByVector(states []TemplateState, vec []float64) (int, float64) {
	best, bestD := -1, 0.0
	for i, st := range states {
		if len(st.Vector) != len(vec) {
			continue
		}
		d := mds.Euclidean(st.Vector, vec)
		if best < 0 || d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}

// bruteDedupeStates and bruteAlignOnto are DedupeStates and alignOnto
// over a full scan: the reference merge.
func bruteDedupeStates(states []TemplateState, eps float64) []TemplateState {
	var reps []TemplateState
	for _, st := range states {
		j, d := bruteNearestStateByVector(reps, st.Vector)
		if j >= 0 && d <= eps {
			reps[j].Weight += st.Weight
			if st.Label == Violation.String() {
				reps[j].Label = st.Label
			}
			continue
		}
		reps = append(reps, st)
	}
	return reps
}

func bruteAlignOnto(t *testing.T, baseStates, inStates []TemplateState, eps float64) []TemplateState {
	t.Helper()
	var src, dst []mds.Coord
	for _, in := range inStates {
		j, d := bruteNearestStateByVector(baseStates, in.Vector)
		if j >= 0 && d <= eps {
			src = append(src, mds.Coord{X: in.X, Y: in.Y})
			dst = append(dst, mds.Coord{X: baseStates[j].X, Y: baseStates[j].Y})
		}
	}
	if len(src) > 0 {
		tr, _, err := mds.Procrustes(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		for i := range inStates {
			p := tr.Apply(mds.Coord{X: inStates[i].X, Y: inStates[i].Y})
			inStates[i].X, inStates[i].Y = p.X, p.Y
		}
	}
	return inStates
}

// bruteMergeStates is the state list MergeTemplates must produce.
func bruteMergeStates(t *testing.T, base, incoming *Template, eps float64) []TemplateState {
	t.Helper()
	ranges, err := MergeRanges(base, incoming)
	if err != nil {
		t.Fatal(err)
	}
	baseStates := RescaleStates(base, ranges)
	inStates := bruteAlignOnto(t, baseStates, RescaleStates(incoming, ranges), eps)
	return bruteDedupeStates(append(baseStates, inStates...), eps)
}

// checkNearest compares one index query against the full scan.
func checkNearest(t *testing.T, ix *vecIndex, q []float64) {
	t.Helper()
	eps := ix.eps
	bj, bd := bruteNearestStateByVector(ix.states, q)
	ij, id := ix.nearest(q)
	if bj >= 0 && bd <= eps {
		if ij != bj || id != bd {
			t.Fatalf("eps %v query %v: index (%d, %v), brute force (%d, %v)", eps, q, ij, id, bj, bd)
		}
		return
	}
	if ij != -1 {
		t.Fatalf("eps %v query %v: index matched %d at %v, brute force nearest (%d, %v) is beyond eps",
			eps, q, ij, id, bj, bd)
	}
}

// indexTestVectors builds n vectors of length dim that stress the index:
// uniform points, points exactly on cell and ε boundaries, copies moved by
// ±ε (and a rounding step either side) along one axis or a random
// direction, exact duplicates (ties), far-out magnitudes that clamp, and
// vectors one longer or shorter than dim.
func indexTestVectors(rng *rand.Rand, dim, n int, eps float64) [][]float64 {
	w := newVecIndex(nil, eps).w
	uniform := func() []float64 {
		v := make([]float64, dim)
		for d := range v {
			v[d] = rng.Float64() * 4 * eps * float64(1+rng.Intn(4))
		}
		return v
	}
	out := [][]float64{uniform()}
	for len(out) < n {
		src := out[rng.Intn(len(out))]
		v := append([]float64(nil), src...)
		switch rng.Intn(9) {
		case 0:
			v = uniform()
		case 1:
			// On a cell boundary.
			for d := range v {
				v[d] = float64(rng.Intn(9)-4) * w
			}
		case 2:
			// On an ε multiple, just inside a cell.
			for d := range v {
				v[d] = float64(rng.Intn(9)-4) * eps
			}
		case 3:
			// ±ε along one axis, nudged by one rounding step either way.
			if len(v) > 0 {
				d := rng.Intn(len(v))
				step := eps
				if rng.Intn(2) == 0 {
					step = -eps
				}
				v[d] += step
				switch rng.Intn(3) {
				case 0:
					v[d] = math.Nextafter(v[d], math.Inf(1))
				case 1:
					v[d] = math.Nextafter(v[d], math.Inf(-1))
				}
			}
		case 4:
			// ε along a random direction.
			var norm float64
			dir := make([]float64, len(v))
			for d := range dir {
				dir[d] = rng.NormFloat64()
				norm += dir[d] * dir[d]
			}
			if norm > 0 {
				for d := range v {
					v[d] += eps * dir[d] / math.Sqrt(norm)
				}
			}
		case 5:
			// Exact duplicate: ties must go to the lowest index.
		case 6:
			// Far out: clamps to an edge cell.
			if len(v) > 0 {
				v[rng.Intn(len(v))] = []float64{1e6, -1e6, 1e12, -3e300, 2e300}[rng.Intn(5)]
			}
		case 7:
			// A different vector length never matches.
			if rng.Intn(2) == 0 {
				v = append(v, rng.Float64())
			} else if len(v) > 0 {
				v = v[:len(v)-1]
			}
		case 8:
			// Within ε/2 jitter.
			for d := range v {
				v[d] += (rng.Float64() - 0.5) * eps / math.Sqrt(float64(len(v)))
			}
		}
		out = append(out, v)
	}
	return out
}

func TestVecIndexMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for dim := 1; dim <= 9; dim++ {
		for _, eps := range []float64{0.01, 0.05, 0.2} {
			vecs := indexTestVectors(rng, dim, 400, eps)
			states := make([]TemplateState, 200)
			for i := range states {
				states[i].Vector = vecs[i]
			}
			ix := newVecIndex(states, eps)
			for _, q := range vecs {
				checkNearest(t, ix, q)
			}
		}
	}
}

// TestVecIndexIncremental checks the add path DedupeStates uses: every
// query sees exactly the states added before it.
func TestVecIndexIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, dim := range []int{1, 2, 3, 8} {
		for _, eps := range []float64{0.01, 0.05, 0.2} {
			ix := newVecIndex(nil, eps)
			for _, v := range indexTestVectors(rng, dim, 300, eps) {
				checkNearest(t, ix, v)
				ix.add(TemplateState{Vector: v})
			}
		}
	}
}

func TestVecIndexEmptyAndZeroLength(t *testing.T) {
	ix := newVecIndex(nil, 0.05)
	if j, _ := ix.nearest([]float64{0.5}); j != -1 {
		t.Fatalf("empty index matched %d", j)
	}
	ix.add(TemplateState{Vector: []float64{}})
	ix.add(TemplateState{Vector: []float64{}})
	if j, d := ix.nearest(nil); j != 0 || d != 0 {
		t.Fatalf("zero-length query = (%d, %v), want (0, 0)", j, d)
	}
	if j, _ := ix.nearest([]float64{0}); j != -1 {
		t.Fatalf("length-1 query matched zero-length state %d", j)
	}
}

// mergeTestTemplate builds a 2-VM × 4-metric (8-D) template with n states
// clustered on a coarse lattice so that ε-close pairs are common; one in
// five states is a violation.
func mergeTestTemplate(rng *rand.Rand, n int, cpuMax float64) *Template {
	t := &Template{
		Version:       templateVersion,
		SensitiveApp:  "vlc",
		Dim:           8,
		SchemaVMs:     []string{"sensitive", "batch"},
		SchemaMetrics: []metrics.Metric{metrics.MetricCPU, metrics.MetricMemory, metrics.MetricIO, metrics.MetricNetwork},
		Ranges: map[metrics.Metric]metrics.Range{
			metrics.MetricCPU:     {Max: cpuMax},
			metrics.MetricMemory:  {Max: 2048, Adaptive: true},
			metrics.MetricIO:      {Max: 100},
			metrics.MetricNetwork: {Max: 1000},
		},
	}
	for i := 0; i < n; i++ {
		v := make([]float64, t.Dim)
		for d := range v {
			v[d] = float64(rng.Intn(3))*0.3 + rng.Float64()*0.04
		}
		label := Safe.String()
		if rng.Intn(5) == 0 {
			label = Violation.String()
		}
		t.States = append(t.States, TemplateState{
			X: rng.Float64()*10 - 5, Y: rng.Float64()*10 - 5,
			Label: label, Weight: 1 + rng.Intn(3), Vector: v,
		})
	}
	return t
}

// incomingFrom derives another host's view of base: a rotated, shifted
// layout revisiting some of base's states (jittered within ε) plus new
// ones.
func incomingFrom(rng *rand.Rand, base *Template, fresh int, cpuMax float64) *Template {
	in := mergeTestTemplate(rng, fresh, cpuMax)
	sin, cos := math.Sincos(0.7)
	for _, st := range base.States {
		if rng.Intn(2) == 0 {
			continue
		}
		st.Vector = append([]float64(nil), st.Vector...)
		for d := range st.Vector {
			st.Vector[d] += (rng.Float64() - 0.5) * 0.01
		}
		st.X, st.Y = cos*st.X-sin*st.Y+3, sin*st.X+cos*st.Y-1
		if rng.Intn(4) == 0 {
			st.Label = Violation.String()
		}
		in.States = append(in.States, st)
	}
	rng.Shuffle(len(in.States), func(i, j int) { in.States[i], in.States[j] = in.States[j], in.States[i] })
	return in
}

func TestMergeMatchesBruteForceReference(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cpuMax float64
	}{
		{"same-ranges", 400},
		{"range-widening", 650},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(21))
			for _, eps := range []float64{0.01, 0.05, 0.2} {
				base := mergeTestTemplate(rng, 300, 400)
				in := incomingFrom(rng, base, 100, tc.cpuMax)
				merged, err := MergeTemplates(base, in, eps)
				if err != nil {
					t.Fatal(err)
				}
				if want := bruteMergeStates(t, base, in, eps); !reflect.DeepEqual(merged.States, want) {
					t.Fatalf("eps %v: merged states differ from the brute-force reference (%d vs %d states)",
						eps, len(merged.States), len(want))
				}
				if got, want := DedupeStates(in.States, eps), bruteDedupeStates(in.States, eps); !reflect.DeepEqual(got, want) {
					t.Fatalf("eps %v: DedupeStates differs from the brute-force reference", eps)
				}
				aligned, err := AlignStates(base, in, eps)
				if err != nil {
					t.Fatal(err)
				}
				if want := bruteAlignOnto(t, base.States, RescaleStates(in, base.Ranges), eps); !reflect.DeepEqual(aligned, want) {
					t.Fatalf("eps %v: AlignStates differs from the brute-force reference", eps)
				}
			}
		})
	}
}

// dedupedTemplate is a template whose states are pairwise more than eps
// apart, like every consensus map the registry stores.
func dedupedTemplate(rng *rand.Rand, n int, eps float64) *Template {
	t := mergeTestTemplate(rng, n, 400)
	t.States = DedupeStates(t.States, eps)
	return t
}

func TestMergeIntoItselfAddsNothing(t *testing.T) {
	const eps = 0.05
	base := dedupedTemplate(rand.New(rand.NewSource(31)), 300, eps)
	merged, err := MergeTemplates(base, base, eps)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.States) != len(base.States) {
		t.Fatalf("self-merge: %d states, want %d", len(merged.States), len(base.States))
	}
	for i, st := range merged.States {
		b := base.States[i]
		if st.Label != b.Label || !reflect.DeepEqual(st.Vector, b.Vector) || st.Weight != 2*b.Weight {
			t.Fatalf("self-merge state %d = %+v, base %+v", i, st, b)
		}
	}
}

func TestMergeNeverDowngradesLabels(t *testing.T) {
	const eps = 0.05
	for _, cpuMax := range []float64{400, 650} {
		rng := rand.New(rand.NewSource(32))
		base := dedupedTemplate(rng, 300, eps)
		in := incomingFrom(rng, base, 100, cpuMax)
		merged, err := MergeTemplates(base, in, eps)
		if err != nil {
			t.Fatal(err)
		}
		// Base states seed the representatives in order.
		rescaled := RescaleStates(base, merged.Ranges)
		for i, b := range rescaled {
			st := merged.States[i]
			if !reflect.DeepEqual(st.Vector, b.Vector) {
				t.Fatalf("cpu max %v: merged state %d is not base state %d", cpuMax, i, i)
			}
			if b.Label == Violation.String() && st.Label != b.Label {
				t.Fatalf("cpu max %v: base violation %d downgraded to %q", cpuMax, i, st.Label)
			}
		}
		// Every incoming violation lands on a violation within eps.
		for _, v := range RescaleStates(in, merged.Ranges) {
			if v.Label != Violation.String() {
				continue
			}
			found := false
			for _, st := range merged.States {
				if st.Label == Violation.String() && mds.Euclidean(st.Vector, v.Vector) <= eps {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("cpu max %v: incoming violation %v lost", cpuMax, v.Vector)
			}
		}
	}
}

func TestApplyFullDeltaEqualsSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	local := mergeTestTemplate(rng, 50, 400)
	snap := mergeTestTemplate(rng, 80, 650)
	for _, base := range []*Template{local, nil} {
		got, err := ApplyDelta(base, &TemplateDelta{ToRevision: 7, Full: true, Patch: snap}, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, snap) {
			t.Fatal("full delta did not reproduce the snapshot")
		}
		got.States[0].Vector[0] = -1
		if snap.States[0].Vector[0] == -1 {
			t.Fatal("applied template aliases the delta patch")
		}
	}
}

func TestAlignStatesRecoversRotatedLayout(t *testing.T) {
	const eps = 0.05
	base := dedupedTemplate(rand.New(rand.NewSource(34)), 200, eps)
	in := CloneTemplate(base)
	sin, cos := math.Sincos(-1.1)
	for i := range in.States {
		st := &in.States[i]
		st.X, st.Y = 2*(cos*st.X-sin*st.Y)+5, 2*(sin*st.X+cos*st.Y)-4
	}
	aligned, err := AlignStates(base, in, eps)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range aligned {
		b := base.States[i]
		if math.Hypot(st.X-b.X, st.Y-b.Y) > 1e-9 || !reflect.DeepEqual(st.Vector, b.Vector) {
			t.Fatalf("aligned state %d = (%v, %v) %v, want (%v, %v) %v",
				i, st.X, st.Y, st.Vector, b.X, b.Y, b.Vector)
		}
	}
}

// BenchmarkMergeTemplates merges a host upload that revisits half of a
// consensus map and adds 2 states, the shape of one fleet put.
func BenchmarkMergeTemplates(b *testing.B) {
	for _, n := range []int{500, 2000, 10000} {
		b.Run(fmt.Sprintf("states=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(41))
			base := benchConsensus(rng, n)
			in := incomingFrom(rng, base, 2, 400)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := MergeTemplates(base, in, 0.05); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchConsensus is an 8-D map of n distinct states spread uniformly over
// the unit cube.
func benchConsensus(rng *rand.Rand, n int) *Template {
	t := mergeTestTemplate(rng, 0, 400)
	for i := 0; i < n; i++ {
		v := make([]float64, t.Dim)
		for d := range v {
			v[d] = rng.Float64()
		}
		t.States = append(t.States, TemplateState{
			X: rng.Float64(), Y: rng.Float64(), Label: Safe.String(), Weight: 1, Vector: v,
		})
	}
	return t
}
