package store

import (
	"bytes"
	"testing"

	"javaflow/internal/bytecode"
	"javaflow/internal/classfile"
	"javaflow/internal/workload"
)

// TestKeyEncodingGolden pins the on-disk key bytes. A changed encoding
// silently orphans every stored record and splits a mixed-version fleet,
// so only a deliberate sim.EngineVersion bump may change these strings.
// The hash has leading zero nibbles to pin the %016x padding.
func TestKeyEncodingGolden(t *testing.T) {
	k := RunKey{
		DeployKey:     DeployKey{Signature: "a/B.c/2", MethodHash: 0x00000000000abcde, Geometry: "w4:U"},
		SerialPerMesh: 3,
		MaxMeshCycles: 500_000,
	}
	if got, want := string(k.DeployKey.encode()), "dep|e1|a/B.c/2|00000000000abcde|w4:U"; got != want {
		t.Errorf("DeployKey.encode() = %q, want %q", got, want)
	}
	if got, want := string(k.encode()), "run|e1|a/B.c/2|00000000000abcde|w4:U|spm3|max500000"; got != want {
		t.Errorf("RunKey.encode() = %q, want %q", got, want)
	}
}

// TestMethodHashGolden pins the fingerprint of one fixed corpus method,
// the value every stored record of it is keyed by.
func TestMethodHashGolden(t *testing.T) {
	const sig = "scimark/fft/FFT.bitreverse/1"
	for _, m := range workload.NamedMethods() {
		if m.Signature() != sig {
			continue
		}
		for i := 0; i < 2; i++ { // computed, then memoised
			if got, want := MethodHash(m), uint64(0x82f3af55f3110e03); got != want {
				t.Fatalf("MethodHash(%s) call %d = %#016x, want %#016x", sig, i, got, want)
			}
		}
		return
	}
	t.Fatalf("no corpus method %s", sig)
}

// TestRunKeySameSignatureDifferentBody: a method whose body changes under
// an unchanged signature must key a different record.
func TestRunKeySameSignatureDifferentBody(t *testing.T) {
	m, cfg := testMethod(t)
	body := make([]bytecode.Instruction, len(m.Code))
	copy(body, m.Code)
	body[0].A++
	twin := &classfile.Method{
		Class: m.Class, Name: m.Name, Argc: m.Argc, Instance: m.Instance,
		ReturnsValue: m.ReturnsValue, MaxLocals: m.MaxLocals, MaxStack: m.MaxStack,
		Code: body, Pool: m.Pool,
	}
	if twin.Signature() != m.Signature() {
		t.Fatalf("twin signature %q, want %q", twin.Signature(), m.Signature())
	}
	a, b := RunKeyFor(cfg, m, 400_000), RunKeyFor(cfg, twin, 400_000)
	if a == b || bytes.Equal(a.encode(), b.encode()) {
		t.Fatalf("same signature, different body, same key %q", a.encode())
	}
}
