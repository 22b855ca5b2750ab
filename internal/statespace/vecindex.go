package statespace

import (
	"math"

	"repro/internal/mds"
)

// vecIndex is an exact ε-neighbour index over template state vectors, the
// lookup behind merge alignment and dedup. States are hashed into cells of
// side w (a hair wider than ε) on their first min(3, dim) coordinates, and
// a query scans only the 3^k cells around its own. Keys pack the cell
// coordinates into one integer: hashing a float struct costs twice as much.
//
// Exactness: if a state's vector is within ε of the query as computed by
// mds.Euclidean, every one of its coordinates differs from the query's by
// at most ε·(1+3u) (u the unit roundoff: the computed sum of squares is at
// least each rounded square, and each rounding loses at most a factor
// 1-u). Dividing by w = ε·(1+2⁻²⁰) keeps the scaled difference below 1
// even after the division rounds (for scaled values under 2²¹ the rounding
// error is below 2⁻³²), so the two floors differ by at most one and the
// state sits in a probed cell. Cell indices are clamped to ±2¹⁹: clamping
// never widens a gap, and once either scaled value passes 2²¹, where
// rounding could matter, both clamp to the same edge. nearest takes the
// minimum over those candidates with ties to the lowest index — the answer
// a full scan gives whenever the full scan's nearest lies within ε.
type vecIndex struct {
	states []TemplateState
	eps    float64
	w      float64
	cells  map[uint64][]int
}

const (
	// keyDims is how many leading vector coordinates pick the cell.
	keyDims = 3
	// cellBits is the width of one packed cell coordinate. Cell indices
	// are clamped to ±cellEdge and offset by cellBias, so a probe one
	// cell past the edge still packs without spilling into its neighbour.
	cellBits = 21
	cellBias = 1 << (cellBits - 1)
	cellEdge = 1 << (cellBits - 2)
)

// newVecIndex indexes states for ε-neighbour queries; eps must be
// positive. The index keeps states (not a copy): add appends through it.
func newVecIndex(states []TemplateState, eps float64) *vecIndex {
	w := eps * (1 + 1.0/(1<<20))
	if eps < 1e-150 {
		// Too small for the rounding argument (squares of differences
		// this size underflow): one cell, i.e. a full scan.
		w = math.Inf(1)
	}
	ix := &vecIndex{states: states, eps: eps, w: w, cells: make(map[uint64][]int, len(states))}
	for i := range states {
		ix.insert(i, states[i].Vector)
	}
	return ix
}

// add appends st as the next state and indexes it.
func (ix *vecIndex) add(st TemplateState) {
	ix.states = append(ix.states, st)
	ix.insert(len(ix.states)-1, st.Vector)
}

func (ix *vecIndex) insert(i int, vec []float64) {
	k := ix.key(vec)
	ix.cells[k] = append(ix.cells[k], i)
}

// key packs vec's clamped cell coordinates, biased to be non-negative,
// cellBits apiece; coordinates past the vector's length count as cell 0.
func (ix *vecIndex) key(vec []float64) uint64 {
	var k uint64
	for d := 0; d < keyDims; d++ {
		var f float64
		if d < len(vec) {
			f = math.Max(-cellEdge, math.Min(cellEdge, math.Floor(vec[d]/ix.w)))
		}
		k = k<<cellBits | uint64(int64(f)+cellBias)
	}
	return k
}

// probeDeltas[k] lists the packed-key offsets of the 3^k cells around a
// cell keyed on k coordinates. Adding one to a key moves to the
// neighbouring cell directly: the bias keeps every field in range.
var probeDeltas = func() (out [keyDims + 1][]uint64) {
	out[0] = []uint64{0}
	for k := 1; k <= keyDims; k++ {
		step := uint64(1) << (cellBits * (keyDims - k))
		for _, base := range out[k-1] {
			out[k] = append(out[k], base-step, base, base+step)
		}
	}
	return out
}()

// nearest returns the index and distance of the lowest-indexed state
// closest to vec among those of vec's length within ε, or (-1, 0) when
// there is none.
func (ix *vecIndex) nearest(vec []float64) (int, float64) {
	key := ix.key(vec)
	best, bestD := -1, 0.0
	for _, delta := range probeDeltas[min(keyDims, len(vec))] {
		for _, i := range ix.cells[key+delta] {
			st := ix.states[i].Vector
			if len(st) != len(vec) {
				continue
			}
			d := mds.Euclidean(st, vec)
			//lint:stayaway-ignore floatcmp ties are exact equal distances; breaking them by index reproduces a full scan's first-minimum answer bit for bit
			if d <= ix.eps && (best < 0 || d < bestD || (d == bestD && i < best)) {
				best, bestD = i, d
			}
		}
	}
	return best, bestD
}
