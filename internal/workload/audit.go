package workload

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/oracle"
	"repro/internal/scan"
)

// auditRun re-checks every artifact of one pipeline run against the
// reference simulator: the T_0 grading, the [4] and dynamic baselines,
// and the final set of each proposed arm, which must keep the coverage
// of its initial set.
func auditRun(s *fsim.Simulator, run *CircuitRun, sample int) error {
	opt := oracle.AuditOptions{SampleFaults: sample}
	c := run.Circuit
	rep := &oracle.Report{}
	if run.T0 != nil {
		rep = oracle.AuditSequence(c, run.Faults, run.T0, run.T0Detected, opt)
	}

	claim := func(ts *scan.Set) *fault.Set {
		got := fault.NewSet(len(run.Faults))
		for _, t := range ts.Tests {
			got.UnionWith(s.DetectTest(t.SI, t.Seq, nil))
		}
		return got
	}
	if run.Base4Comp != nil {
		required := claim(run.Base4Init)
		rep.Merge(oracle.AuditCoverage(c, run.Faults, run.Chain, run.Base4Comp, claim(run.Base4Comp), required, opt))
	}
	if run.BaseDyn != nil {
		rep.Merge(oracle.AuditCoverage(c, run.Faults, run.Chain, run.BaseDyn, claim(run.BaseDyn), nil, opt))
	}
	for _, res := range []*core.Result{run.Proposed, run.ProposedRand} {
		if res != nil {
			rep.Merge(oracle.AuditCoverage(c, run.Faults, run.Chain, res.Final, res.FinalDetected, res.InitialDetected, opt))
		}
	}
	if !rep.Ok() {
		return fmt.Errorf("workload %s: audit: %s", run.Entry.Params.Name, rep)
	}
	return nil
}
