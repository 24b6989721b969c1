package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"repro/internal/serve"
)

// Seeded input generation. Every input is a pure function of (seed, stream,
// index), so a run's inputs do not depend on how far its clients got or in
// which order they drew, and the program under test sees only the generated
// specs.
//
// The parameter boxes are the ranges the repository's tests, CLIs and docs
// treat as valid: hopf and vanderpol follow pnsweep's grids and the core
// closed-form tests (μ ≤ 3), negres the Q range of the tank-Q test, fhn the
// ε values of the osc and core tests, and ring the Fig. 4(b) I_EE line
// (331–715 µA) with R_c from the ring budget property test. A point that
// fails inside its box is counted as a failure, never dropped or re-drawn.

func rngFor(seed int64, stream string, i int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, stream, i)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

func uniform(r *rand.Rand, lo, hi float64) float64 { return lo + (hi-lo)*r.Float64() }

func logUniform(r *rand.Rand, lo, hi float64) float64 {
	return math.Exp(uniform(r, math.Log(lo), math.Log(hi)))
}

// Closed-form hopf points use σ for both equations, so c = σ²/ω².
func hopfSpec(r *rand.Rand, name string) serve.PointSpec {
	return serve.PointSpec{Name: name, Model: "hopf", Params: map[string]float64{
		"lambda": uniform(r, 0.5, 2), "omega": uniform(r, hopfOmega[0], hopfOmega[1]), "sigma": uniform(r, 0.01, 0.05),
	}}
}

func vdpSpec(r *rand.Rand, name string) serve.PointSpec {
	return serve.PointSpec{Name: name, Model: "vanderpol", Params: map[string]float64{
		"mu": uniform(r, vdpMu[0], vdpMu[1]), "sigma": uniform(r, 0.005, 0.02),
	}}
}

var (
	hopfOmega = [2]float64{2, 12}
	vdpMu     = [2]float64{0.5, 3}
)

// stratify moves x, drawn uniformly from box, into the i-th of n equal
// slices of the box.
func stratify(x float64, box [2]float64, i, n int) float64 {
	w := (box[1] - box[0]) / float64(n)
	return box[0] + w*float64(i) + (x-box[0])/float64(n)
}

func negresSpec(r *rand.Rand, name string) serve.PointSpec {
	return serve.PointSpec{Name: name, Model: "negres", Params: map[string]float64{
		"f0": logUniform(r, 1e8, 1e9), "q": uniform(r, 4, 16),
	}}
}

func fhnSpec(r *rand.Rand, name string) serve.PointSpec {
	return serve.PointSpec{Name: name, Model: "fhn", Params: map[string]float64{
		"eps": uniform(r, 0.05, 0.08), "sigmav": logUniform(r, 1e-3, 1e-2), "sigmaw": logUniform(r, 1e-3, 1e-2),
	}}
}

func ringSpec(r *rand.Rand, name string) serve.PointSpec {
	return serve.PointSpec{Name: name, Model: "ring", Params: map[string]float64{
		"iee": uniform(r, 331e-6, 715e-6), "rc": uniform(r, 400, 600),
	}}
}

var specMakers = map[string]func(*rand.Rand, string) serve.PointSpec{
	"hopf": hopfSpec, "vanderpol": vdpSpec, "negres": negresSpec, "fhn": fhnSpec, "ring": ringSpec,
}

// coldDeck is the family mix of interactive-cold, dealt in seeded shuffles
// of eight so every run sees the same proportions (ring one in eight).
var coldDeck = []string{"hopf", "hopf", "vanderpol", "vanderpol", "negres", "negres", "fhn", "ring"}

// coldSpec is the i-th unique interactive-cold point.
func coldSpec(seed int64, i int) serve.PointSpec {
	perm := rngFor(seed, "cold-deck", i/len(coldDeck)).Perm(len(coldDeck))
	family := coldDeck[perm[i%len(coldDeck)]]
	return specMakers[family](rngFor(seed, "cold", i), fmt.Sprintf("cold-%s-%d", family, i))
}

// warmSet is interactive-warm's working set: the paper's Fig. 2 bandpass, the
// Colpitts (period estimated before every cache lookup), and fourteen seeded
// points over the other families.
func warmSet(seed int64) []serve.PointSpec {
	set := []serve.PointSpec{{Name: "warm-bandpass", Model: "bandpass"}, {Name: "warm-colpitts", Model: "colpitts"}}
	families := []string{"hopf", "hopf", "hopf", "vanderpol", "vanderpol", "vanderpol",
		"negres", "negres", "negres", "fhn", "fhn", "fhn", "ring", "ring"}
	for i, f := range families {
		set = append(set, specMakers[f](rngFor(seed, "warm", i), fmt.Sprintf("warm-%s-%d", f, i)))
	}
	return set
}

// warmRequest is the i-th interactive-warm request. Requests come in seeded
// shuffles of 18: one characterise of every warm-set point plus two compose
// jobs (about one in nine), each anchored on the next warm-set points in
// turn, so every run sees the same mix.
func warmRequest(seed int64, i, setSize int) (compose bool, idx int) {
	block := setSize + 2
	b, slot := i/block, rngFor(seed, "warm-req", i/block).Perm(block)[i%block]
	if slot < setSize {
		return false, slot
	}
	return true, (2*b + slot - setSize) % setSize
}

const (
	localVdp    = 24
	localRing   = 8
	clusterSize = 32
)

// ieeLine returns sweep k's ring bias currents: one per eighth of the
// Fig. 4(b) line, jittered inside the middle half of its cell so neighbours
// stay at least 24 µA apart. Returned in increasing order.
func ieeLine(seed int64, k int) []float64 {
	r := rngFor(seed, "local-iee", k)
	step := (715e-6 - 331e-6) / localRing
	out := make([]float64, localRing)
	for j := range out {
		out[j] = 331e-6 + step*(float64(j)+0.25+0.5*r.Float64())
	}
	return out
}

// localSweep is sweep-local's k-th sweep: van der Pol points (native SoA
// batch bodies) and ring points at nominal R_c/r_b on the I_EE line
// (gather/scatter fallback), in seeded order. ring[j] is the input index of
// the j-th ring point by increasing I_EE.
func localSweep(seed int64, k int) (specs []serve.PointSpec, ring []int) {
	for j := 0; j < localVdp; j++ {
		specs = append(specs, vdpSpec(rngFor(seed, "local-vdp", k*localVdp+j), fmt.Sprintf("vdp-%d-%d", k, j)))
	}
	for j, iee := range ieeLine(seed, k) {
		specs = append(specs, serve.PointSpec{Name: fmt.Sprintf("ring-%d-%d", k, j), Model: "ring",
			Params: map[string]float64{"iee": iee}})
	}
	perm := rngFor(seed, "local-order", k).Perm(len(specs))
	out := make([]serve.PointSpec, len(specs))
	ring = make([]int, localRing)
	for from, to := range perm {
		out[to] = specs[from]
		if from >= localVdp {
			ring[from-localVdp] = to
		}
	}
	return out, ring
}

// clusterSweep is sweep-cluster's k-th sweep: half hopf, half van der Pol, in
// seeded order. The i-th point of each family takes its ω or μ from the i-th
// of 16 equal slices of the box, so every sweep covers both boxes evenly and
// carries about the same work whatever the seed: a run holds only a few
// sweeps, and a van der Pol point's cost and payload grow with μ.
func clusterSweep(seed int64, k int) []serve.PointSpec {
	specs := make([]serve.PointSpec, clusterSize)
	perm := rngFor(seed, "cluster-order", k).Perm(clusterSize)
	half := clusterSize / 2
	for j, slot := range perm {
		r := rngFor(seed, "cluster", k*clusterSize+j)
		name := fmt.Sprintf("cl-%d-%d", k, j)
		if j%2 == 0 {
			specs[slot] = hopfSpec(r, name)
			specs[slot].Params["omega"] = stratify(specs[slot].Params["omega"], hopfOmega, j/2, half)
		} else {
			specs[slot] = vdpSpec(r, name)
			specs[slot].Params["mu"] = stratify(specs[slot].Params["mu"], vdpMu, j/2, half)
		}
	}
	return specs
}
