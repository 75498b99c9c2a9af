package jobs

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/workload"
)

// benchBase is a small handwritten scan circuit used throughout the
// canonicalization tests.
const benchBase = `# a small scan circuit
INPUT(G0)
INPUT(G1)
OUTPUT(G3)
G5 = DFF(G4)
G2 = NAND(G0, G1)
G3 = AND(G2, G5)
G4 = OR(G0, G2)
`

// benchShuffled is the same circuit with permuted gate declarations,
// extra whitespace and different comments — semantically identical.
const benchShuffled = `
# reordered declaration of the same netlist

INPUT(G0)
INPUT(G1)

OUTPUT(G3)
G4   =  OR( G0 , G2 )
G2 = NAND(G0, G1)
G5 = DFF(G4)
# trailing comment
G3 = AND(G2, G5)
`

func TestCanonicalTextInsensitiveToGateOrder(t *testing.T) {
	c1, err := bench.ParseString("a", benchBase)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := bench.ParseString("b", benchShuffled)
	if err != nil {
		t.Fatal(err)
	}
	if t1, t2 := CanonicalText(c1), CanonicalText(c2); t1 != t2 {
		t.Errorf("canonical texts differ:\n--- base ---\n%s--- shuffled ---\n%s", t1, t2)
	}
	if d1, d2 := CircuitDigest(c1), CircuitDigest(c2); d1 != d2 {
		t.Errorf("digests differ: %s vs %s", d1, d2)
	}
	// The circuit name must not enter the digest (same upload under two
	// names hits the same cache entry) — exercised by the distinct
	// "a"/"b" names above.
}

func TestCanonicalTextSensitiveToLogic(t *testing.T) {
	base, err := bench.ParseString("c", benchBase)
	if err != nil {
		t.Fatal(err)
	}
	// A single gate-function change must change the digest.
	changed, err := bench.ParseString("c", strings.Replace(benchBase, "NAND", "NOR", 1))
	if err != nil {
		t.Fatal(err)
	}
	if CircuitDigest(base) == CircuitDigest(changed) {
		t.Error("NAND->NOR did not change the digest")
	}
}

func TestCanonicalTextSensitiveToPIOrder(t *testing.T) {
	// PI declaration order defines the test-vector bit order, so it is
	// semantic: swapping the INPUT lines must change the digest.
	swapped := strings.Replace(benchBase, "INPUT(G0)\nINPUT(G1)", "INPUT(G1)\nINPUT(G0)", 1)
	c1, err := bench.ParseString("c", benchBase)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := bench.ParseString("c", swapped)
	if err != nil {
		t.Fatal(err)
	}
	if CircuitDigest(c1) == CircuitDigest(c2) {
		t.Error("PI order swap did not change the digest")
	}
}

func TestConfigFingerprintIgnoresExecutionKnobs(t *testing.T) {
	base := ConfigFingerprint(workload.Config{}, 1)
	// Workers, Check and CheckSample are proven result-invariant (the
	// order-invariance and audit tests), so they must not change the
	// artifact identity.
	for name, cfg := range map[string]workload.Config{
		"workers":  {Workers: 8},
		"check":    {Check: true, CheckSample: 17},
		"defaults": {T0MaxLen: 300, RandomT0Len: 1000},
		"progress": {Progress: func(string) {}},
	} {
		if got := ConfigFingerprint(cfg, 1); got != base {
			t.Errorf("%s changed the fingerprint: %s vs %s", name, got, base)
		}
	}
}

// TestConfigFingerprintPinned pins fingerprints to fixed hex values:
// cached bundles stay reachable only while their keys are unchanged, so
// deleting an excluded config field, or any other edit to the
// fingerprint, must leave these bytes alone. The service row is the
// config of the benchmark's upload keys.
func TestConfigFingerprintPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  workload.Config
		seed int64
		want string
	}{
		{"zero/seed0", workload.Config{}, 0, "74ae71138a65d5a257abe86400be849c"},
		{"zero/seed1", workload.Config{}, 1, "eee5dd416e7798ddd7853c59b8440c56"},
		{"service", workload.Config{Seed: 1, T0MaxLen: 60, RandomT0Len: 200, Workers: 1}, 1, "89aa98fb5b3627d98dbf55892428cded"},
	} {
		if got := ConfigFingerprint(tc.cfg, tc.seed); got != tc.want {
			t.Errorf("%s: fingerprint %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestConfigFingerprintRetiresPartialScan pins a partial-scan key and
// checks that it moved off the key its bundles had while the [2,3]
// baseline capped extensions at the flip-flop count: those bundles hold
// another Table 3 column, so a lookup must miss them.
func TestConfigFingerprintRetiresPartialScan(t *testing.T) {
	const stale = "5dd00f10738e9bfc123c89e8f747787b"
	got := ConfigFingerprint(workload.Config{ScanFFs: 3}, 1)
	if got == stale {
		t.Error("partial-scan fingerprint still reaches bundles with the old [2,3] column")
	}
	if want := "928e5ec58ea811ef14b9ef98bba529d8"; got != want {
		t.Errorf("partial-scan fingerprint %s, want %s", got, want)
	}
}

func TestConfigFingerprintSensitiveToResults(t *testing.T) {
	base := ConfigFingerprint(workload.Config{}, 1)
	seen := map[string]string{"base": base}
	for name, fp := range map[string]string{
		"seed":        ConfigFingerprint(workload.Config{}, 2),
		"t0maxlen":    ConfigFingerprint(workload.Config{T0MaxLen: 81}, 1),
		"randlen":     ConfigFingerprint(workload.Config{RandomT0Len: 151}, 1),
		"skiprandom":  ConfigFingerprint(workload.Config{SkipRandom: true}, 1),
		"skipdynamic": ConfigFingerprint(workload.Config{SkipDynamic: true}, 1),
		"skipbase":    ConfigFingerprint(workload.Config{SkipBaselines: true}, 1),
		"skipdir":     ConfigFingerprint(workload.Config{SkipDirected: true}, 1),
		"scanffs":     ConfigFingerprint(workload.Config{ScanFFs: 3}, 1),
		"maxiter":     ConfigFingerprint(workload.Config{Core: core.Options{MaxIterations: 3}}, 1),
		"siscore":     ConfigFingerprint(workload.Config{Core: core.Options{SIScoreSample: 100}}, 1),
		"sicand":      ConfigFingerprint(workload.Config{Core: core.Options{SICandidateLimit: 10}}, 1),
	} {
		for prev, pfp := range seen {
			if fp == pfp {
				t.Errorf("%s and %s share a fingerprint", name, prev)
			}
		}
		seen[name] = fp
	}
}

func TestParseKeyRoundTrip(t *testing.T) {
	c, err := bench.ParseString("c", benchBase)
	if err != nil {
		t.Fatal(err)
	}
	k := Key{Circuit: CircuitDigest(c), Config: ConfigFingerprint(workload.Config{}, 1)}
	got, err := ParseKey(k.String())
	if err != nil {
		t.Fatal(err)
	}
	if got != k {
		t.Errorf("round trip: got %+v want %+v", got, k)
	}
	for _, bad := range []string{"", "abc", "-", "abc-", "-def", "xyz-123", "ABC-def", "ab c-de"} {
		if _, err := ParseKey(bad); err == nil {
			t.Errorf("ParseKey(%q) succeeded", bad)
		}
	}
}
