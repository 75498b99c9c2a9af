// Audits of pipeline artifacts. An audit re-derives, from first
// principles and the reference simulator, the properties a test set
// claims: structural validity, test-application cost, preserved
// coverage, detection-set accuracy and expected tester responses. The
// invariants that need no simulation are core's, checked on every run.
// Full re-simulation of every fault is affordable only on small
// circuits, so audits sample faults and tests deterministically (uniform
// stride, like core's scan-in scoring) — a violation anywhere in the
// sample fails the audit, and the sample is reproducible.
package oracle

import (
	"fmt"
	"strings"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/response"
	"repro/internal/scan"
)

// Violation is one failed invariant check.
type Violation struct {
	Check  string // short name of the invariant
	Detail string
}

func (v Violation) String() string { return v.Check + ": " + v.Detail }

// Report accumulates the outcome of an audit.
type Report struct {
	Checks     int // individual assertions evaluated
	Violations []Violation
}

func (r *Report) addf(check, format string, args ...interface{}) {
	r.Violations = append(r.Violations, Violation{Check: check, Detail: fmt.Sprintf(format, args...)})
}

// Ok reports whether every check passed.
func (r *Report) Ok() bool { return len(r.Violations) == 0 }

// Merge folds another report into r.
func (r *Report) Merge(o *Report) {
	r.Checks += o.Checks
	r.Violations = append(r.Violations, o.Violations...)
}

// String renders a human-readable summary.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d checks, %d violations", r.Checks, len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintf(&sb, "\n  %s", v)
	}
	return sb.String()
}

// AuditOptions tunes how much an audit re-simulates.
type AuditOptions struct {
	// SampleFaults bounds how many claimed-detected and claimed-undetected
	// faults are re-simulated per test set (each side gets the budget).
	// 0 means a default of 32. Negative means every fault, and a response
	// cross-check of every test instead of sampleTests of them.
	SampleFaults int
}

// sampleTests is how many tests of a set get a response cross-check.
const sampleTests = 4

func (o AuditOptions) withDefaults() AuditOptions {
	if o.SampleFaults == 0 {
		o.SampleFaults = 32
	}
	return o
}

// sampleIndices returns ~limit members of set at a uniform stride
// (limit < 0 returns all), so the audited subset is deterministic.
func sampleIndices(set *fault.Set, limit int) []int {
	all := set.Indices()
	if limit < 0 || len(all) <= limit {
		return all
	}
	stride := (len(all) + limit - 1) / limit
	out := make([]int, 0, limit)
	for i := 0; i < len(all); i += stride {
		out = append(out, all[i])
	}
	return out
}

// auditDetection checks a claimed detection set for a test set against
// the reference simulator: a sample of claimed-detected faults must be
// detected, a sample of claimed-undetected faults must not be. Both
// directions matter — an over-claiming simulator inflates coverage, an
// under-claiming one inflates test length.
func (s *Sim) auditDetection(rep *Report, what string, ts *scan.Set, claimed *fault.Set, opt AuditOptions) {
	undet := fault.NewFullSet(len(s.faults))
	undet.SubtractWith(claimed)
	pos := sampleIndices(claimed, opt.SampleFaults)
	neg := sampleIndices(undet, opt.SampleFaults)
	targets := fault.FromIndices(len(s.faults), append(append([]int(nil), pos...), neg...))
	got := s.DetectSet(ts, targets)
	for _, fi := range pos {
		rep.Checks++
		if !got.Has(fi) {
			rep.addf("detection", "%s: fault %d (%s) claimed detected, oracle disagrees",
				what, fi, s.faults[fi].String(s.c))
		}
	}
	for _, fi := range neg {
		rep.Checks++
		if got.Has(fi) {
			rep.addf("detection", "%s: fault %d (%s) claimed undetected, oracle detects it",
				what, fi, s.faults[fi].String(s.c))
		}
	}
}

// auditCycles recomputes the paper's N_cyc = (k+1)·N_SV + Σ L(T_i) from
// the raw test set — independently of Set.Cycles — and compares.
func auditCycles(rep *Report, what string, ts *scan.Set, nsv int) {
	rep.Checks++
	vectors := 0
	for _, t := range ts.Tests {
		vectors += len(t.Seq)
	}
	want := 0
	if len(ts.Tests) > 0 {
		want = (len(ts.Tests)+1)*nsv + vectors
	}
	if got := ts.Cycles(nsv); got != want {
		rep.addf("cycles", "%s: Set.Cycles(%d) = %d, first-principles N_cyc = %d", what, nsv, got, want)
	}
}

// auditResponses cross-checks package response's expected tester
// responses against the oracle good machine for a sample of tests.
func (s *Sim) auditResponses(rep *Report, what string, ch *scan.Chain, ts *scan.Set, opt AuditOptions) {
	stride := 1
	if opt.SampleFaults >= 0 && len(ts.Tests) > sampleTests {
		stride = (len(ts.Tests) + sampleTests - 1) / sampleTests
	}
	for i := 0; i < len(ts.Tests); i += stride {
		rep.Checks++
		t := ts.Tests[i]
		want := s.GoodResponse(t)
		got := response.Compute(s.c, ch, t)
		if !responsesEqual(want, got) {
			rep.addf("response", "%s: test %d: response.Compute disagrees with oracle good machine", what, i)
		}
	}
}

func responsesEqual(a, b response.TestResponse) bool {
	if len(a.POs) != len(b.POs) || !a.ScanOut.Equal(b.ScanOut) {
		return false
	}
	for u := range a.POs {
		if !a.POs[u].Equal(b.POs[u]) {
			return false
		}
	}
	return true
}

// AuditCoverage audits one test set against the coverage it claims:
// structural validity, cost, and sampled detection accuracy, plus the
// subset relation between what the set claims and what was required.
// claimed is the detection set the pipeline computed for ts; required
// (nil = skip) is a set the pipeline promised to preserve, e.g. the
// coverage of the test set a compactor started from.
func AuditCoverage(c *circuit.Circuit, faults []fault.Fault, ch *scan.Chain, ts *scan.Set, claimed, required *fault.Set, opt AuditOptions) *Report {
	opt = opt.withDefaults()
	rep := &Report{}
	s := NewChain(c, faults, ch)

	rep.Checks++
	if err := ts.Validate(c.NumPIs(), s.Nsv()); err != nil {
		rep.addf("validate", "%v", err)
	}
	auditCycles(rep, "set", ts, s.Nsv())
	if required != nil {
		rep.Checks++
		if !claimed.ContainsAll(required) {
			missing := required.Clone()
			missing.SubtractWith(claimed)
			rep.addf("coverage", "compaction lost %d of %d required faults", missing.Count(), required.Count())
		}
	}
	s.auditDetection(rep, "set", ts, claimed, opt)
	s.auditResponses(rep, "set", ch, ts, opt)
	return rep
}

// AuditSequence audits the claimed detection set of a raw input
// sequence applied without scan (the paper's T_0 grading): a sample of
// claimed-detected and claimed-undetected faults is re-simulated on the
// reference engine.
func AuditSequence(c *circuit.Circuit, faults []fault.Fault, seq logic.Sequence, claimed *fault.Set, opt AuditOptions) *Report {
	opt = opt.withDefaults()
	rep := &Report{}
	s := New(c, faults)
	undet := fault.NewFullSet(len(faults))
	undet.SubtractWith(claimed)
	pos := sampleIndices(claimed, opt.SampleFaults)
	neg := sampleIndices(undet, opt.SampleFaults)
	targets := fault.FromIndices(len(faults), append(append([]int(nil), pos...), neg...))
	got := s.Detect(seq, Options{Targets: targets})
	for _, fi := range pos {
		rep.Checks++
		if !got.Has(fi) {
			rep.addf("detection", "sequence: fault %d (%s) claimed detected, oracle disagrees",
				fi, faults[fi].String(c))
		}
	}
	for _, fi := range neg {
		rep.Checks++
		if got.Has(fi) {
			rep.addf("detection", "sequence: fault %d (%s) claimed undetected, oracle detects it",
				fi, faults[fi].String(c))
		}
	}
	return rep
}
