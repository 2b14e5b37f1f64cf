package service

import (
	"testing"
)

// TestValidatedEntryAccounting proves a -validate compile is charged
// honestly: the entry carries the validation metadata, its byte charge
// includes the certificate (arena peak included), the validation metrics
// move, and — because validation checks the artifact without changing it —
// the content address is the same as the plain compile's.
func TestValidatedEntryAccounting(t *testing.T) {
	plainReq := smallReq(1)
	valReq := plainReq
	valReq.Validate = true

	if plainReq.Key() != valReq.Key() {
		t.Fatalf("Validate changed the content address:\n%s\n%s", plainReq.Key(), valReq.Key())
	}

	mp := NewMetrics()
	plain, _, err := NewCache(1<<30, 2, mp).GetOrCompile(plainReq)
	if err != nil {
		t.Fatal(err)
	}
	mv := NewMetrics()
	validated, _, err := NewCache(1<<30, 2, mv).GetOrCompile(valReq)
	if err != nil {
		t.Fatal(err)
	}

	if !validated.Validated || validated.ValidateTime <= 0 {
		t.Fatalf("entry not marked validated (validated=%v time=%v)",
			validated.Validated, validated.ValidateTime)
	}
	if plain.Validated {
		t.Fatal("plain compile marked validated")
	}
	v := validated.Compiled.Verification
	if v == nil || v.Validation == nil {
		t.Fatal("validated entry carries no certificate")
	}
	if v.Validation.Proved+v.Validation.Probed != v.Validation.Pairs || v.Validation.Pairs == 0 {
		t.Fatalf("implausible certificate: %s", v.Validation)
	}

	// Same program, so the validated entry's extra charge must be exactly
	// the certificate (which includes the arena peak).
	cert := v.Validation.MemBytes()
	if cert <= 0 || cert < v.Validation.ArenaBytes || v.Validation.ArenaBytes <= 0 {
		t.Fatalf("certificate charge %d does not cover arena %d", cert, v.Validation.ArenaBytes)
	}
	if want := plain.Bytes + cert; validated.Bytes != want {
		t.Fatalf("validated entry charges %d bytes, want %d (plain %d + certificate %d)",
			validated.Bytes, want, plain.Bytes, cert)
	}

	// Metrics: one validation observed with a latency sample, none on the
	// plain path.
	if got := mv.validations.Load(); got != 1 {
		t.Fatalf("validations = %d, want 1", got)
	}
	if got := mp.validations.Load(); got != 0 {
		t.Fatalf("plain path counted %d validations", got)
	}
	snap := mv.snapshot()
	if snap.Compile.Validations != 1 || snap.Compile.ValidateLatency.Count != 1 {
		t.Fatalf("snapshot lost the validation sample: %+v", snap.Compile)
	}
}
