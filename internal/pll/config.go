package pll

import (
	"fmt"
	"math"
	"sort"
)

// SourceC is one named noise source's share of an oscillator's
// phase-diffusion constant, mirroring core.SourceContribution on the wire:
// the per-source c_i of Eqs. 30-31, in s²·Hz.
type SourceC struct {
	Label string  `json:"label"`
	C     float64 `json:"c_s2hz"`
}

// FOM parameterises a VCO by its phase-noise figure of merit instead of a
// full characterisation — the datasheet path. The single-sideband noise is
//
//	L_lin(f) = 10^(FOM/10) · (f0/f)² / P_mW · (1 + f_flicker/f)
//
// which reproduces a Lorentzian's 1/f² far-out skirt (FOM_dB =
// 10·log10(c·P_mW) for a characterised oscillator with diffusion constant c
// dissipating P_mW milliwatts) plus an optional 1/f³ region below the
// flicker corner. The FOM form has no Lorentzian corner, so it diverges from
// a characterisation near the carrier; parity holds at offsets well beyond
// f_c = π·f0²·c.
type FOM struct {
	F0Hz            float64 `json:"f0_hz"`
	FOMdBcHz        float64 `json:"fom_dbc_hz"`
	PowerMW         float64 `json:"power_mw"`
	FlickerCornerHz float64 `json:"flicker_corner_hz,omitempty"`
}

// Leg is one oscillator input to a composition stage: either a
// characterisation (carrier f0, scalar c, optionally the per-source split so
// Sources can select a subset by label) or a FOM datasheet model. Exactly one
// of the two parameterisations must be given.
type Leg struct {
	Name string `json:"name,omitempty"`
	// F0Hz is the oscillation frequency (1/T from the characterised PSS).
	F0Hz float64 `json:"f0_hz,omitempty"`
	// C is the scalar phase-diffusion constant c (Eq. 29), s²·Hz.
	C float64 `json:"c_s2hz,omitempty"`
	// PerSource carries the per-source c_i split (Eqs. 30-31) when the
	// characterisation recorded one.
	PerSource []SourceC `json:"per_source,omitempty"`
	// Sources, when non-empty, restricts the leg to the named noise sources:
	// the effective c is the sum of the matching c_i. Every name must exist
	// in PerSource.
	Sources []string `json:"sources,omitempty"`
	// FOM is the datasheet alternative to a characterised (F0Hz, C).
	FOM *FOM `json:"fom,omitempty"`
}

// Stage is one type-II charge-pump PLL in a clock chain. The first stage's
// input is its Ref leg; every later stage is driven by the previous stage's
// output, so Ref must be nil there.
type Stage struct {
	Name string `json:"name,omitempty"`
	// Ref is the reference oscillator (stage 0 only).
	Ref *Leg `json:"ref,omitempty"`
	// VCO is the controlled oscillator; its carrier is the stage output
	// frequency.
	VCO Leg `json:"vco"`
	// LoopBandwidthHz is the open-loop unity-gain (crossover) frequency.
	LoopBandwidthHz float64 `json:"loop_bandwidth_hz"`
	// PhaseMarginDeg positions the stabilising zero: ω_z = ω_c/tan(PM).
	// Default 60°, valid range (0°, 90°).
	PhaseMarginDeg float64 `json:"phase_margin_deg,omitempty"`
	// DividerN is the feedback divider; 0 derives it as f_vco/f_in.
	DividerN float64 `json:"divider_n,omitempty"`
	// PFDNoisedBcHz is a flat PFD/TDC noise floor referred to the stage
	// input, dBc/Hz. 0 means absent (a genuine 0 dBc/Hz floor is not a
	// meaningful part).
	PFDNoisedBcHz float64 `json:"pfd_noise_dbc_hz,omitempty"`
	// DividerNoisedBcHz is a flat feedback-divider floor referred to the
	// stage input, dBc/Hz. 0 means absent.
	DividerNoisedBcHz float64 `json:"divider_noise_dbc_hz,omitempty"`
}

// Grid is the logarithmic offset-frequency grid the composite is evaluated
// on.
type Grid struct {
	StartHz float64 `json:"start_hz"`
	StopHz  float64 `json:"stop_hz"`
	// PointsPerDecade defaults to 20.
	PointsPerDecade int `json:"points_per_decade,omitempty"`
}

// RealizationConfig asks Compose for a seeded time-domain phase realization
// synthesized from the composite PSD.
type RealizationConfig struct {
	Samples      int     `json:"samples"`
	SampleRateHz float64 `json:"sample_rate_hz"`
	Seed         int64   `json:"seed"`
}

// Config is a full composition request: a chain of PLL stages, the
// evaluation grid, the jitter integration band and an optional realization.
type Config struct {
	Stages []Stage `json:"stages"`
	Grid   Grid    `json:"grid"`
	// JitterBandHz bounds the RMS-jitter integral [lo, hi]; the zero value
	// integrates the whole grid. Edges are clamped into the grid.
	JitterBandHz [2]float64 `json:"jitter_band_hz,omitempty"`
	// Realization, when non-nil, adds a synthesized phase trajectory to the
	// result.
	Realization *RealizationConfig `json:"realization,omitempty"`
}

// maxRealizationSamples bounds a single realization: 2^20 samples is ~8 MiB
// of float64 phase, well past any comm-system block length while keeping a
// JSON response bounded.
const maxRealizationSamples = 1 << 20

// noiseSource is an evaluated leg: single-sideband noise L(f) in linear
// power units (1/Hz) at offset f from its carrier.
type noiseSource interface {
	llin(f float64) float64
}

// lorentzSource is the paper's exact stationary spectrum (Eq. 27, linear
// form): L(f) = f0²c / (π²f0⁴c² + f²).
type lorentzSource struct{ f0, c float64 }

func (s lorentzSource) llin(f float64) float64 {
	num := s.f0 * s.f0 * s.c
	f02c := s.f0 * s.f0 * s.c
	return num / (math.Pi*math.Pi*f02c*f02c + f*f)
}

// fomSource is the datasheet VCO model (see FOM).
type fomSource struct {
	lin0 float64 // 10^(FOM/10)·f0²/P_mW — L(f)·f² away from flicker
	fc   float64 // 1/f³ corner, 0 for none
}

func newFOMSource(m *FOM) fomSource {
	return fomSource{
		lin0: math.Pow(10, m.FOMdBcHz/10) * m.F0Hz * m.F0Hz / m.PowerMW,
		fc:   m.FlickerCornerHz,
	}
}

func (s fomSource) llin(f float64) float64 {
	l := s.lin0 / (f * f)
	if s.fc > 0 {
		l *= 1 + s.fc/f
	}
	return l
}

// floorSource is a flat noise floor (PFD, divider).
type floorSource struct{ lin float64 }

func (s floorSource) llin(float64) float64 { return s.lin }

func dbToLin(db float64) float64 { return math.Pow(10, db/10) }

// resolve validates the leg and returns its carrier frequency and noise
// source. legPos names the leg in errors ("stage 0 ref").
func (l *Leg) resolve(legPos string) (f0 float64, src noiseSource, err error) {
	if l.FOM != nil {
		if l.C != 0 || len(l.Sources) > 0 {
			return 0, nil, fmt.Errorf("pll: %s: give either a characterised c or a fom, not both", legPos)
		}
		m := l.FOM
		if m.F0Hz <= 0 || m.PowerMW <= 0 {
			return 0, nil, fmt.Errorf("pll: %s: fom needs f0_hz > 0 and power_mw > 0", legPos)
		}
		if m.FlickerCornerHz < 0 {
			return 0, nil, fmt.Errorf("pll: %s: negative flicker corner", legPos)
		}
		return m.F0Hz, newFOMSource(m), nil
	}
	if l.F0Hz <= 0 {
		return 0, nil, fmt.Errorf("pll: %s: needs f0_hz > 0 (or a fom)", legPos)
	}
	c := l.C
	if len(l.Sources) > 0 {
		byLabel := make(map[string]float64, len(l.PerSource))
		for _, s := range l.PerSource {
			byLabel[s.Label] = s.C
		}
		c = 0
		for _, name := range l.Sources {
			ci, ok := byLabel[name]
			if !ok {
				known := make([]string, 0, len(byLabel))
				for k := range byLabel {
					known = append(known, k)
				}
				sort.Strings(known)
				return 0, nil, fmt.Errorf("pll: %s: unknown noise source %q (have %v)", legPos, name, known)
			}
			c += ci
		}
	}
	if c <= 0 || math.IsNaN(c) || math.IsInf(c, 0) {
		return 0, nil, fmt.Errorf("pll: %s: needs a finite c > 0 (got %v)", legPos, c)
	}
	return l.F0Hz, lorentzSource{f0: l.F0Hz, c: c}, nil
}

// size validates the grid bounds and returns the point count.
func (g *Grid) size() (int, error) {
	if g.StartHz <= 0 || g.StopHz <= g.StartHz {
		return 0, fmt.Errorf("pll: grid needs 0 < start_hz < stop_hz (got %g, %g)", g.StartHz, g.StopHz)
	}
	ppd := g.PointsPerDecade
	if ppd == 0 {
		ppd = 20
	}
	if ppd < 1 || ppd > 1000 {
		return 0, fmt.Errorf("pll: points_per_decade %d out of range [1, 1000]", ppd)
	}
	decades := math.Log10(g.StopHz / g.StartHz)
	n := int(math.Ceil(decades*float64(ppd))) + 1
	if n < 2 {
		n = 2
	}
	if n > 200_000 {
		return 0, fmt.Errorf("pll: grid of %d points is too fine", n)
	}
	return n, nil
}

// points materialises the log grid. The grid always includes StopHz as its
// last point.
func (g *Grid) points() ([]float64, error) {
	n, err := g.size()
	if err != nil {
		return nil, err
	}
	f := make([]float64, n)
	l0, l1 := math.Log10(g.StartHz), math.Log10(g.StopHz)
	for i := range f {
		f[i] = math.Pow(10, l0+(l1-l0)*float64(i)/float64(n-1))
	}
	f[0], f[n-1] = g.StartHz, g.StopHz
	return f, nil
}

// Validate shape-checks the configuration — stage structure, loop knobs,
// grid, band, realization — without touching the legs, whose numeric
// validation happens as Compose resolves them. The serving layer calls this
// at submission time, before spec legs have numbers.
func (c *Config) Validate() error {
	if len(c.Stages) == 0 {
		return fmt.Errorf("pll: config needs at least one stage")
	}
	if len(c.Stages) > 16 {
		return fmt.Errorf("pll: chain of %d stages is too deep (max 16)", len(c.Stages))
	}
	for k := range c.Stages {
		st := &c.Stages[k]
		if k == 0 && st.Ref == nil {
			return fmt.Errorf("pll: stage 0 needs a ref leg")
		}
		if k > 0 && st.Ref != nil {
			return fmt.Errorf("pll: stage %d: only stage 0 takes a ref leg (later stages are driven by the previous output)", k)
		}
		if st.LoopBandwidthHz <= 0 {
			return fmt.Errorf("pll: stage %d: needs loop_bandwidth_hz > 0", k)
		}
		pm := st.PhaseMarginDeg
		if pm == 0 {
			pm = defaultPhaseMarginDeg
		}
		if pm <= 0 || pm >= 90 {
			return fmt.Errorf("pll: stage %d: phase margin %g° outside (0°, 90°)", k, st.PhaseMarginDeg)
		}
		if st.DividerN < 0 {
			return fmt.Errorf("pll: stage %d: negative divider", k)
		}
	}
	if _, err := c.Grid.size(); err != nil {
		return err
	}
	if b := c.JitterBandHz; b != [2]float64{} {
		if b[0] <= 0 || b[1] <= b[0] {
			return fmt.Errorf("pll: jitter band needs 0 < lo < hi (got %g, %g)", b[0], b[1])
		}
	}
	if r := c.Realization; r != nil {
		if r.Samples < 2 || r.Samples > maxRealizationSamples {
			return fmt.Errorf("pll: realization samples %d outside [2, %d]", r.Samples, maxRealizationSamples)
		}
		if r.SampleRateHz <= 0 {
			return fmt.Errorf("pll: realization needs sample_rate_hz > 0")
		}
	}
	return nil
}
