// Package jobs is the reusable orchestration layer between the paper's
// pipeline (internal/workload) and its front ends: the scancompact and
// tables CLIs and the compactd HTTP service all submit work here, so
// every entry point runs the same code path.
//
// The layer has three parts:
//
//   - a content-addressed artifact Store: SHA-256 of the canonicalized
//     .bench netlist plus a fingerprint of the result-affecting config
//     fields keys a bundle of pipeline artifacts (C, T_0, the compacted
//     sets, table data, N_cyc), persisted on disk and kept resident in
//     memory under an LRU byte budget, so repeat submissions are
//     O(lookup);
//   - a bounded-worker Queue that runs submitted jobs over the existing
//     fsim worker pool, emits per-phase progress events, and folds
//     concurrent submissions of the same key into one computation
//     (single-flight);
//   - an HTTP server (server.go, mounted by cmd/compactd) exposing the
//     queue and store as a JSON API with streaming progress.
package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"repro/internal/circuit"
	"repro/internal/workload"
)

// CanonicalText renders a circuit as a canonical .bench text: no
// comments, single-space formatting, INPUT/OUTPUT/DFF lines in their
// semantically significant declaration order (PI vector order, PO
// order, scan-chain order), and combinational gate lines sorted by
// output signal name. Two .bench sources that differ only in
// whitespace, comments or gate declaration order canonicalize to the
// same text, so their digests — and with them their artifact cache
// keys — coincide.
//
// The canonical text deliberately omits the circuit name: uploading the
// same netlist under two names must hit the same cache entry.
func CanonicalText(c *circuit.Circuit) string {
	var sb strings.Builder
	for _, pi := range c.PIs {
		fmt.Fprintf(&sb, "INPUT(%s)\n", c.Nodes[pi].Name)
	}
	for _, po := range c.POs {
		fmt.Fprintf(&sb, "OUTPUT(%s)\n", c.Nodes[po].Name)
	}
	for _, ff := range c.DFFs {
		nd := c.Nodes[ff]
		fmt.Fprintf(&sb, "%s = DFF(%s)\n", nd.Name, c.Nodes[nd.Fanin[0]].Name)
	}
	var gates []string
	for _, nd := range c.Nodes {
		switch nd.Kind {
		case circuit.Input, circuit.DFF:
			continue
		case circuit.Const0:
			gates = append(gates, fmt.Sprintf("%s = CONST0()", nd.Name))
		case circuit.Const1:
			gates = append(gates, fmt.Sprintf("%s = CONST1()", nd.Name))
		default:
			names := make([]string, len(nd.Fanin))
			for j, f := range nd.Fanin {
				names[j] = c.Nodes[f].Name
			}
			gates = append(gates, fmt.Sprintf("%s = %s(%s)", nd.Name, nd.Kind, strings.Join(names, ", ")))
		}
	}
	sort.Strings(gates)
	for _, g := range gates {
		sb.WriteString(g)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// CircuitDigest is the content half of an artifact key: the SHA-256 of
// the canonical .bench text, hex encoded.
func CircuitDigest(c *circuit.Circuit) string {
	sum := sha256.Sum256([]byte(CanonicalText(c)))
	return hex.EncodeToString(sum[:])
}

// ConfigFingerprint hashes the result-affecting fields of a pipeline
// config under the given effective seed. Fields that are proven not to
// change any artifact byte — Workers (pass sharding only),
// Check/CheckSample (observation only), Progress — are excluded,
// so e.g. a serial run and an 8-worker run share one cache entry.
// Deleting an excluded field leaves every key unchanged. The "v2" prefix
// retired the version-1 summary.json bundles (they lack the
// universe-coverage fields).
func ConfigFingerprint(cfg workload.Config, seed int64) string {
	// Normalize the documented zero-value defaults so that an explicit
	// default and an omitted field fingerprint identically.
	if cfg.T0MaxLen == 0 {
		cfg.T0MaxLen = 300
	}
	if cfg.RandomT0Len == 0 {
		cfg.RandomT0Len = 1000
	}
	// t0comp=omit and uncollapsed=false are literals: the pipeline always
	// runs that way since its T_0-conditioner and fault-list switches
	// were retired, and writing their values keeps every stored key.
	var sb strings.Builder
	fmt.Fprintf(&sb, "v2;seed=%d;t0max=%d;randlen=%d;t0comp=omit;", seed, cfg.T0MaxLen, cfg.RandomT0Len)
	fmt.Fprintf(&sb, "skiprand=%t;skipdyn=%t;skipbase=%t;skipdir=%t;uncollapsed=false;scanffs=%d;",
		cfg.SkipRandom, cfg.SkipDynamic, cfg.SkipBaselines, cfg.SkipDirected, cfg.ScanFFs)
	// The five false flags and the 0 are core's retired ablation switches
	// and omission bound, written at their zero values to keep every key.
	co := cfg.Core
	fmt.Fprintf(&sb, "core=%d,false,false,false,false,false,0,%d,%d",
		co.MaxIterations, co.SIScoreSample, co.SICandidateLimit)
	// Partial-scan bundles stored before the [2,3] baseline capped its
	// extensions at the chain length hold another Table 3 column; the
	// marker retires their keys and leaves full-scan keys alone.
	if cfg.ScanFFs > 0 {
		sb.WriteString(";dyncap=nsv")
	}
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:16])
}

// Key is the content address of one artifact bundle: circuit digest
// plus config fingerprint.
type Key struct {
	Circuit string // hex SHA-256 of the canonical .bench text
	Config  string // hex fingerprint of the result-affecting config
}

// String renders the key in its wire form "<circuit>-<config>".
func (k Key) String() string { return k.Circuit + "-" + k.Config }

// ParseKey parses the wire form produced by String.
func ParseKey(s string) (Key, error) {
	i := strings.IndexByte(s, '-')
	if i < 0 {
		return Key{}, fmt.Errorf("jobs: malformed artifact key %q", s)
	}
	k := Key{Circuit: s[:i], Config: s[i+1:]}
	if !isHex(k.Circuit) || !isHex(k.Config) || k.Circuit == "" || k.Config == "" {
		return Key{}, fmt.Errorf("jobs: malformed artifact key %q", s)
	}
	return k, nil
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	return true
}
