package obs

import "testing"

// FuzzParseTraceparent feeds arbitrary header values to the traceparent
// parser, which reads them off every incoming HTTP hop. It must never
// panic, an accepted value must carry the documented 32-lowercase-hex trace
// ID, and it must round-trip through Traceparent.
func FuzzParseTraceparent(f *testing.F) {
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add("00-00000000000000000000000000000000-0000000000000000-00")
	f.Add("00-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-01")
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7")
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		sc, ok := ParseTraceparent(s)
		if !ok {
			return
		}
		if len(sc.Trace) != 32 {
			t.Fatalf("accepted %q with trace %q", s, sc.Trace)
		}
		for _, c := range sc.Trace {
			if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
				t.Fatalf("accepted %q with a trace ID that is not lowercase hex: %q", s, sc.Trace)
			}
		}
		back, ok := ParseTraceparent(sc.Traceparent())
		if !ok || back != sc {
			t.Fatalf("%q parsed to %+v, whose Traceparent %q parses to %+v (ok=%v)", s, sc, sc.Traceparent(), back, ok)
		}
	})
}
