package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"repro/internal/budget"
)

// FuzzPointResultCodec feeds arbitrary bytes to the loss-free PointResult
// decoder, which reads worker results off the network (pnclient, the
// cluster coordinator). Decoding must never panic, and whatever decodes
// must be a fixed point of decode → encode → decode: the second encoding
// is byte-identical to the first.
func FuzzPointResultCodec(f *testing.F) {
	ok := Run(hopfGrid(1), nil)[0]
	// Keep the seeds small: a few orbit and adjoint knots exercise the same
	// decoders as thousands do, and a megabyte seed starves the mutator.
	ok.Result.PSS.Orbit.Points = ok.Result.PSS.Orbit.Points[:3]
	ok.Result.Floquet.V1.Points = ok.Result.Floquet.V1.Points[:3]
	degraded := PointResult{Name: "degraded", PSS: ok.PSS, Err: errors.New("floquet: no unit multiplier")}
	cut := Run(hopfGrid(1), &Config{AttemptTimeout: time.Nanosecond, FlightRecorder: 4})[0]
	for _, r := range []PointResult{ok, degraded, cut, {Index: 3, Name: "skipped", Err: budget.ErrCanceled}} {
		data, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"index":1,"name":"x","pss_is_result":true,"wall_ns":5,"cached":true}`))
	f.Add([]byte(`{"error":{"msg":"boom","kind":"panic"},"attempts":[{"rung":0,"rung_name":"base","trace":{},"wall_ns":1}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var r PointResult
		if json.Unmarshal(data, &r) != nil {
			return
		}
		enc, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("decoded %q but cannot encode it: %v", data, err)
		}
		var back PointResult
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("encoding %q does not decode: %v", enc, err)
		}
		enc2, err := json.Marshal(back)
		if err != nil {
			t.Fatalf("re-decoded %q cannot encode: %v", enc, err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("decode → encode → decode is not a fixed point:\n%s\n%s", enc, enc2)
		}
	})
}
