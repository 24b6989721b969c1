package serve

import (
	"bytes"
	"encoding/json"
	"testing"
)

// fuzzMaxWorkers stands in for Config.MaxSweepWorkers in the worker clamp
// the handlers apply.
const fuzzMaxWorkers = 8

// admitBody decodes a body of /v1/characterise (kind 0), /v1/sweep (1) or
// /v1/compose (2) as decodeBody does, runs the checks the handler and submit
// run before a job exists, and returns the journal header the job would be
// built from plus the decoded request. ok is false for a rejected body.
func admitBody(kind uint8, body []byte) (hdr jrecord, req any, ok bool) {
	decode := func(v any) bool {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		return dec.Decode(v) == nil
	}
	switch kind % 3 {
	case 0:
		var r CharacteriseRequest
		if !decode(&r) {
			return hdr, nil, false
		}
		hdr, req = jrecord{Kind: "characterise", Specs: []PointSpec{r.PointSpec}, TimeoutMS: r.TimeoutMS, Workers: 1, NoCache: r.NoCache}, &r
	case 1:
		var r SweepRequest
		if !decode(&r) || len(r.Points) == 0 {
			return hdr, nil, false
		}
		workers := r.Workers
		if workers <= 0 || workers > fuzzMaxWorkers {
			workers = fuzzMaxWorkers
		}
		hdr, req = jrecord{Kind: "sweep", Specs: r.Points, TimeoutMS: r.TimeoutMS, Workers: workers, NoCache: r.NoCache, LeaseTTLMS: r.LeaseTTLMS}, &r
	default:
		var r ComposeRequest
		if !decode(&r) || r.Validate() != nil {
			return hdr, nil, false
		}
		specs := r.SpecLegs()
		workers := len(specs)
		if workers < 1 {
			workers = 1
		}
		if workers > fuzzMaxWorkers {
			workers = fuzzMaxWorkers
		}
		hdr, req = jrecord{Kind: "compose", Specs: specs, TimeoutMS: r.TimeoutMS, Workers: workers, NoCache: r.NoCache, Compose: &r}, &r
	}
	for _, sp := range hdr.Specs {
		if sp.validate() != nil {
			return hdr, nil, false
		}
	}
	return hdr, req, true
}

// FuzzSubmitBody feeds arbitrary bodies to the three submit endpoints'
// decode-and-validate path, without queueing a job. It must never panic,
// and an accepted body must be accepted again after re-encoding, with the
// same idempotency fingerprint.
func FuzzSubmitBody(f *testing.F) {
	f.Add(uint8(0), []byte(`{"model":"hopf","params":{"omega":2,"sigma":0.02},"timeout_ms":60000}`))
	f.Add(uint8(0), []byte(`{"name":"r","model":"ring","no_cache":true}`))
	f.Add(uint8(0), []byte(`{"model":"negres","params":{"f0":1e8,"q":8,"tempk":300}}`))
	f.Add(uint8(1), []byte(`{"points":[{"model":"hopf"},{"name":"v","model":"vanderpol","params":{"mu":3}}],"workers":2,"lease_ttl_ms":500}`))
	f.Add(uint8(2), []byte(`{"stages":[{"ref":{"spec":{"model":"hopf","params":{"omega":6.3e6}}},"vco":{"f0_hz":1e9,"c_s2hz":1e-19},"loop_bandwidth_hz":1e5,"divider_n":10}],"grid":{"start_hz":1e3,"stop_hz":1e7},"jitter_band_hz":[1e4,1e6]}`))
	f.Add(uint8(2), []byte(`{"stages":[{"vco":{"fom":{"f0_hz":1e9,"fom_dbc_hz":-180,"power_mw":5}},"loop_bandwidth_hz":1e5}],"grid":{"start_hz":1e3,"stop_hz":1e7},"realization":{"samples":64,"sample_rate_hz":1e8,"seed":7}}`))
	f.Fuzz(func(t *testing.T, kind uint8, body []byte) {
		hdr, req, ok := admitBody(kind, body)
		if !ok {
			return
		}
		fp := idemFingerprint(hdr)
		again, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted %q but cannot re-encode it: %v", body, err)
		}
		hdr2, _, ok := admitBody(kind, again)
		if !ok {
			t.Fatalf("accepted %q but rejected its re-encoding %q", body, again)
		}
		if fp2 := idemFingerprint(hdr2); fp2 != fp {
			t.Fatalf("fingerprint of %q changed after re-encoding to %q", body, again)
		}
	})
}
