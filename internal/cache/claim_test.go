package cache

import (
	"bytes"
	"errors"
	"testing"
)

// A lead claim's Publish releases every joined claim with its outcome; a
// failure is shared but never stored, a success is stored.
func TestClaimLeadJoinPublish(t *testing.T) {
	s, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	lead := s.Claim("k")
	join := s.Claim("k")
	if lead.Origin != OriginComputed || join.Origin != OriginShared {
		t.Fatalf("origins %v, %v; want computed, shared", lead.Origin, join.Origin)
	}
	boom := errors.New("boom")
	if err := lead.Publish(nil, boom); err != boom {
		t.Fatalf("Publish returned %v", err)
	}
	if _, err := join.Wait(); err != boom {
		t.Fatalf("joined claim got %v, want the leader's error", err)
	}
	lead = s.Claim("k")
	if lead.Origin != OriginComputed {
		t.Fatalf("a failure was stored: origin %v", lead.Origin)
	}
	join = s.Claim("k")
	if err := lead.Publish(payload(1), nil); err != nil {
		t.Fatal(err)
	}
	if v, err := join.Wait(); err != nil || !bytes.Equal(v, payload(1)) {
		t.Fatalf("joined claim got %q, %v", v, err)
	}
	if hit := s.Claim("k"); hit.Origin != OriginMem || !bytes.Equal(hit.Val, payload(1)) {
		t.Fatalf("after Publish: origin %v val %q", hit.Origin, hit.Val)
	}
}

// Reclaim turns a hit the caller cannot use into a lead whose Publish
// overwrites the entry, and a second Reclaim meanwhile joins that lead.
func TestClaimReclaimOverwrites(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte(`"stale"`)); err != nil {
		t.Fatal(err)
	}
	hit := s.Claim("k")
	if hit.Origin != OriginMem {
		t.Fatalf("origin %v, want mem", hit.Origin)
	}
	lead, join := hit.Reclaim(), hit.Reclaim()
	if lead.Origin != OriginComputed || join.Origin != OriginShared {
		t.Fatalf("origins %v, %v; want computed, shared", lead.Origin, join.Origin)
	}
	if err := lead.Publish(payload(2), nil); err != nil {
		t.Fatal(err)
	}
	if v, err := join.Wait(); err != nil || !bytes.Equal(v, payload(2)) {
		t.Fatalf("joined claim got %q, %v", v, err)
	}
	fresh, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := fresh.Get("k"); !ok || !bytes.Equal(v, payload(2)) {
		t.Fatalf("disk entry not overwritten: %q", v)
	}
}
