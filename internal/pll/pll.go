// Package pll is the phase-noise composition layer: it takes per-oscillator
// characterisations (the scalar c of Eq. 29, the per-source c_i of
// Eqs. 30-31, or a datasheet FOM) and composes reference, charge-pump-loop
// and VCO contributions through type-II PLL loop transfer functions into a
// system-level L(f_m) mask, integrated RMS jitter, a per-contributor
// breakdown, and seeded time-domain phase realizations.
//
// The loop model is the standard type-II charge-pump PLL. With crossover
// ω_c = 2π·BW and a stabilising zero at ω_z = ω_c/tan(PM), the open-loop
// transfer is
//
//	G(s) = K·(1 + s/ω_z)/s²,   K = ω_c²/√(1 + (ω_c/ω_z)²)
//
// so |G(jω_c)| = 1 and the phase margin at crossover is PM exactly. Input
// (reference, PFD, divider) noise reaches the output shaped by the lowpass
// |N·G/(1+G)|² — multiplied by the divider ratio N² inside the loop
// bandwidth — while the VCO's own noise is shaped by the complementary
// highpass |1/(1+G)|², so far outside the loop bandwidth the composite
// converges to the bare VCO spectrum. Cascaded chains (PLL feeding PLL)
// propagate every upstream contributor through each later stage's lowpass,
// keeping the breakdown attribution exact end to end.
//
// Everything here is frequency-domain arithmetic on a shared log grid:
// composing a chain costs microseconds, which is what lets a serving layer
// fan thousands of composition queries in on a handful of cached
// characterisations (ROADMAP item #2).
package pll

import (
	"fmt"
	"math"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
)

const defaultPhaseMarginDeg = 60

// Contributor is one noise path's share of the composite output: its mask
// over the grid and its band-integrated jitter. Names are stage-qualified:
// "<stage>.ref", "<stage>.pfd", "<stage>.div", "<stage>.vco".
type Contributor struct {
	Name      string    `json:"name"`
	LdBc      []float64 `json:"l_dbc"`
	JitterSec float64   `json:"jitter_sec"`
}

// Result is a composed system characterisation.
type Result struct {
	// CarrierHz is the final stage's output frequency.
	CarrierHz float64 `json:"carrier_hz"`
	// FHz is the offset-frequency grid; LdBc the composite single-sideband
	// mask L(f_m) on it, dBc/Hz.
	FHz  []float64 `json:"f_hz"`
	LdBc []float64 `json:"l_dbc"`
	// Contributors breaks the composite down by noise path; at every grid
	// point the linear sum of the contributor masks is the composite.
	Contributors []Contributor `json:"contributors"`
	// BandHz is the jitter integration band actually used (after clamping
	// into the grid); JitterRad/JitterSec the integrated RMS phase jitter
	// σ_φ = √(2∫L df) and its time equivalent σ_φ/(2π·f_carrier).
	BandHz    [2]float64 `json:"band_hz"`
	JitterRad float64    `json:"jitter_rad"`
	JitterSec float64    `json:"jitter_sec"`
	// Phase is the seeded time-domain phase realization (radians) when one
	// was requested, sampled at SampleRateHz.
	Phase        []float64 `json:"phase,omitempty"`
	SampleRateHz float64   `json:"sample_rate_hz,omitempty"`
}

// loopXfer is one stage's fixed loop parameters.
type loopXfer struct {
	k  float64 // open-loop gain constant (rad²/s²)
	wz float64 // stabilising zero (rad/s)
	n  float64 // feedback divider
}

func newLoop(bwHz, pmDeg, n float64) loopXfer {
	wc := 2 * math.Pi * bwHz
	wz := wc / math.Tan(pmDeg*math.Pi/180)
	k := wc * wc / math.Sqrt(1+(wc/wz)*(wc/wz))
	return loopXfer{k: k, wz: wz, n: n}
}

// at evaluates the power transfer at offset f: lp2 = |N·G/(1+G)|² (input
// noise to output) and hp2 = |1/(1+G)|² (VCO noise to output).
func (l loopXfer) at(f float64) (lp2, hp2 float64) {
	w := 2 * math.Pi * f
	// G(jω) = K(1 + jω/ωz)/(jω)² = -K(1 + jω/ωz)/ω²
	gr := -l.k / (w * w)
	gi := gr * w / l.wz
	dr, di := 1+gr, gi
	den := dr*dr + di*di
	hp2 = 1 / den
	lp2 = l.n * l.n * (gr*gr + gi*gi) / den
	return lp2, hp2
}

// Compose evaluates a composition request. The engine is pure arithmetic —
// no characterisation runs here; legs arrive as numbers — so it is cheap
// enough to serve per-request, and it fires the pll.compose fault point,
// records pn_pll_* metrics and a "pll.compose" span like any other unit of
// served work.
func Compose(cfg *Config) (*Result, error) { return ComposeWithSpan(cfg, nil) }

// ComposeWithSpan is Compose with the "pll.compose" span parented under an
// existing trace — the job server uses it so compositions appear on job
// timelines next to the characterisations that fed them.
func ComposeWithSpan(cfg *Config, parent *obs.Span) (*Result, error) {
	sp := obs.StartSpan(parent, "pll.compose")
	m := pllMetrics.Get()
	start := time.Now()
	res, err := compose(cfg, m)
	m.seconds.Observe(time.Since(start).Seconds())
	if err != nil {
		m.failed.Inc()
	} else {
		m.ok.Inc()
		sp.SetAttr("carrier_hz", res.CarrierHz)
		sp.SetAttr("jitter_sec", res.JitterSec)
		sp.SetAttr("grid_points", len(res.FHz))
		sp.SetAttr("stages", len(cfg.Stages))
	}
	sp.EndErr(err)
	return res, err
}

// contrib is a contributor's linear-power mask while the cascade is being
// built.
type contrib struct {
	name string
	lin  []float64
}

func compose(cfg *Config, m *pllInstruments) (*Result, error) {
	if cfg == nil {
		return nil, fmt.Errorf("pll: nil config")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := faultinject.Fire(faultinject.PllCompose); err != nil {
		return nil, fmt.Errorf("pll: compose failed: %w", err)
	}
	f, err := cfg.Grid.points()
	if err != nil {
		return nil, err
	}

	var contribs []contrib
	var fin float64 // current chain carrier (stage input frequency)
	for k := range cfg.Stages {
		st := &cfg.Stages[k]
		sname := st.Name
		if sname == "" {
			sname = fmt.Sprintf("pll%d", k)
		}
		var refSrc noiseSource
		if k == 0 {
			var err error
			fin, refSrc, err = st.Ref.resolve("stage 0 ref")
			if err != nil {
				return nil, err
			}
			m.legs.With("ref").Inc()
		}
		fvco, vcoSrc, err := st.VCO.resolve(fmt.Sprintf("stage %d vco", k))
		if err != nil {
			return nil, err
		}
		if st.VCO.FOM != nil {
			m.legs.With("fom").Inc()
		} else {
			m.legs.With("vco").Inc()
		}
		n := st.DividerN
		if n == 0 {
			n = fvco / fin
		}
		pm := st.PhaseMarginDeg
		if pm == 0 {
			pm = defaultPhaseMarginDeg
		}
		loop := newLoop(st.LoopBandwidthHz, pm, n)

		lp2 := make([]float64, len(f))
		hp2 := make([]float64, len(f))
		for i, fm := range f {
			lp2[i], hp2[i] = loop.at(fm)
		}
		// Everything already in the chain enters this stage as its
		// reference: refer it to the new output through the lowpass.
		for _, c := range contribs {
			for i := range c.lin {
				c.lin[i] *= lp2[i]
			}
		}
		add := func(name string, src noiseSource, gain []float64) {
			lin := make([]float64, len(f))
			for i, fm := range f {
				lin[i] = src.llin(fm) * gain[i]
			}
			contribs = append(contribs, contrib{name: sname + "." + name, lin: lin})
		}
		if refSrc != nil {
			add("ref", refSrc, lp2)
		}
		if st.PFDNoisedBcHz != 0 {
			add("pfd", floorSource{lin: dbToLin(st.PFDNoisedBcHz)}, lp2)
		}
		if st.DividerNoisedBcHz != 0 {
			add("div", floorSource{lin: dbToLin(st.DividerNoisedBcHz)}, lp2)
		}
		add("vco", vcoSrc, hp2)
		fin = fvco
	}
	carrier := fin

	comp := make([]float64, len(f))
	for _, c := range contribs {
		for i, v := range c.lin {
			comp[i] += v
		}
	}

	band := cfg.JitterBandHz
	if band == [2]float64{} {
		band = [2]float64{f[0], f[len(f)-1]}
	}
	band[0] = math.Max(band[0], f[0])
	band[1] = math.Min(band[1], f[len(f)-1])
	if band[1] <= band[0] {
		return nil, fmt.Errorf("pll: jitter band [%g, %g] does not overlap the grid [%g, %g]",
			cfg.JitterBandHz[0], cfg.JitterBandHz[1], f[0], f[len(f)-1])
	}

	res := &Result{
		CarrierHz:    carrier,
		FHz:          f,
		LdBc:         toDB(comp),
		Contributors: make([]Contributor, len(contribs)),
		BandHz:       band,
	}
	varRad := bandVariance(f, comp, band[0], band[1])
	res.JitterRad = math.Sqrt(varRad)
	res.JitterSec = res.JitterRad / (2 * math.Pi * carrier)
	for i, c := range contribs {
		res.Contributors[i] = Contributor{
			Name:      c.name,
			LdBc:      toDB(c.lin),
			JitterSec: math.Sqrt(bandVariance(f, c.lin, band[0], band[1])) / (2 * math.Pi * carrier),
		}
	}

	if rc := cfg.Realization; rc != nil {
		res.Phase = realize(f, comp, rc)
		res.SampleRateHz = rc.SampleRateHz
	}
	return res, nil
}

func toDB(lin []float64) []float64 {
	out := make([]float64, len(lin))
	for i, v := range lin {
		out[i] = 10 * math.Log10(v) // v == 0 → -Inf; the JSON codec carries it
	}
	return out
}

// bandVariance integrates the single-sideband mask over [lo, hi] and returns
// the phase variance σ_φ² = 2∫L(f) df in rad². Trapezoid over the grid
// segments, with linear interpolation where a band edge cuts a segment.
func bandVariance(f, lin []float64, lo, hi float64) float64 {
	var acc float64
	for i := 0; i+1 < len(f); i++ {
		a, b := f[i], f[i+1]
		if b <= lo || a >= hi {
			continue
		}
		ya, yb := lin[i], lin[i+1]
		if a < lo {
			ya += (yb - ya) * (lo - a) / (b - a)
			a = lo
		}
		if b > hi {
			yb = lin[i] + (lin[i+1]-lin[i])*(hi-f[i])/(f[i+1]-f[i])
			b = hi
		}
		acc += 0.5 * (ya + yb) * (b - a)
	}
	return 2 * acc
}
