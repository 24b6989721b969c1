// Go may fuse a multiply and an add into one FMA instruction on arm64,
// ppc64le, s390x and riscv64, which changes the last bits of every integrated
// state. amd64 never fuses implicitly, so only there are the result hashes
// below a fixed property of the source.

//go:build amd64

package phasenoise

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/osc"
	"repro/internal/serve"
	"repro/internal/shooting"
	"repro/internal/sweep"
)

// goldenPoint is one pinned characterisation: its pnfp1 cache key and the
// sha256 of its loss-free core.Result JSON.
type goldenPoint struct {
	key, sha string
}

// golden pins every registry model at its default parameters, resolved the
// way the server resolves them, plus the nominal Fig. 4 ECL ring of the
// experiments package (period estimated over 300 ns, 4000 steps per period).
// A change to any key or hash means a refactor changed cache identity or
// result bytes.
var golden = map[string]goldenPoint{
	"bandpass":  {"aea08491502fe27b3e20fb62517ca8191e2c3633e86da767dbfa09c7625cc1ec", "9b74a99cbe52e54a971065054ff990706ce412b9633d726b686bced6b77c1780"},
	"colpitts":  {"8381b1a07f030b3c0cd124ad7a127a80f20bf6c552e5c44f93f45c577661254f", "c9ca4a5278a1fdab6026dbc193aaf1e3a8294dd351ec45fa661409672671af69"},
	"fhn":       {"8a09120af6da13fdd0a0eccf2fac7c31070471f9680a05f7bb3f00b0294d2321", "f5c257cbd5ce16ce9f6b4eb2f01eb1eb246083489484f9a5dfec530e02644f48"},
	"hopf":      {"830fd60c0374762b3a0d6654e0727700d6a9154f3e538d387309c94bb380d69c", "81e8788fddbfccdabd82079e5b16debf5785ad5584e7b26ea287eb6d649ad433"},
	"negres":    {"f8585cd58e5303ecc53f6d8d73c0ed7828bd747e4a29d78a9688cabc74ffaed9", "d35f7adc673ac3af97f5cf582a782e7a768fd8f1fec4b02f9d7b00ea311b3519"},
	"ring":      {"a7661cbcc30f2269d73d03f505726560c52738f66f6d2620a1477d5bacf60e1c", "bde084a603939dfa87a7675cac81b09c892da714d108c0e7cc1b5d7e71d85fc0"},
	"vanderpol": {"05f71d53572766b6e680e04dad899ca523d62c39a242eb22d219f7f62918e5a1", "b9640a7ff83e57b2a525fb98f6663fe1a33e238cc9e76a1e2e12608efe0a6585"},
	"fig4-ring": {"819e1995fa4d173b94de5221626569e0b18555301df2c7553457bce6d022b635", "00070ba0c6f3582fda60393cb217f350fd03a008ab91dcfeb7467eceedb3384e"},
}

// goldenPoints resolves every registry model through serve.PointSpec and
// appends the Fig. 4 ring point.
func goldenPoints(t *testing.T) []sweep.Point {
	t.Helper()
	var pts []sweep.Point
	for _, m := range osc.Models() {
		p, err := serve.PointSpec{Model: m, Params: osc.DefaultParams(m)}.Resolve(nil)
		if err != nil {
			t.Fatalf("resolve %s: %v", m, err)
		}
		pts = append(pts, p)
	}
	fig := experiments.Fig4aParams[0]
	r := osc.NewECLRingPaper()
	r.Rc, r.Rb, r.IEE = fig.Rc, fig.Rb, fig.IEE
	T, x0, err := shooting.EstimatePeriod(r, r.InitialState(), 300e-9)
	if err != nil {
		t.Fatal(err)
	}
	opts := &core.Options{Shooting: &shooting.Options{StepsPerPeriod: 4000}}
	params := map[string]float64{"rc": fig.Rc, "rb": fig.Rb, "iee": fig.IEE}
	return append(pts, sweep.Point{
		Name:   "fig4-ring",
		System: r,
		X0:     x0,
		TGuess: T,
		Opts:   opts,
		Key:    cache.CharacterisationKey("ring", params, x0, T, opts.FingerprintFields()),
	})
}

// TestGoldenKeysAndResultHashes runs the golden points scalar and in lockstep
// groups of up to eight lanes; both must reproduce every pinned key and
// result hash.
func TestGoldenKeysAndResultHashes(t *testing.T) {
	if testing.Short() {
		t.Skip("characterises every registry model")
	}
	pts := goldenPoints(t)
	for _, cfg := range []*sweep.Config{{Workers: 1}, {Workers: 1, BatchLanes: 8}} {
		for i, r := range sweep.Run(pts, cfg) {
			name := pts[i].Name
			if !r.OK() {
				t.Fatalf("lanes=%d %s: %v", cfg.BatchLanes, name, r.Err)
			}
			data, err := json.Marshal(r.Result)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			got := goldenPoint{key: pts[i].Key, sha: hex.EncodeToString(sum[:])}
			if want := golden[name]; got != want {
				t.Errorf("lanes=%d %s:\n got  {%q, %q}\n want {%q, %q}", cfg.BatchLanes, name, got.key, got.sha, want.key, want.sha)
			}
		}
	}
}
