// The tests live in an external package so they can use internal/oracle
// as the reference: the oracle's good machine runs on the event-driven
// engine (esim), so these tests check response.Compute — which runs on
// the compiled word engine (sim) — against a genuinely independent
// implementation rather than against the engine it is built on.
package response_test

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/oracle"
	"repro/internal/response"
	"repro/internal/samples"
	"repro/internal/scan"
)

func vec(s string) logic.Vector {
	v, err := logic.ParseVector(s)
	if err != nil {
		panic(err)
	}
	return v
}

func assertSame(t *testing.T, want, got response.TestResponse) {
	t.Helper()
	if len(want.POs) != len(got.POs) {
		t.Fatalf("PO cycle count: oracle %d, response %d", len(want.POs), len(got.POs))
	}
	for u := range want.POs {
		if !got.POs[u].Equal(want.POs[u]) {
			t.Errorf("cycle %d PO mismatch: response %s, oracle %s", u, got.POs[u], want.POs[u])
		}
	}
	if !got.ScanOut.Equal(want.ScanOut) {
		t.Errorf("scan-out %s != oracle %s", got.ScanOut, want.ScanOut)
	}
}

func TestComputeMatchesOracle(t *testing.T) {
	c := samples.S27()
	orc := oracle.New(c, fault.Collapse(c))
	tst := scan.Test{SI: vec("010"), Seq: logic.Sequence{vec("1010"), vec("0001"), vec("1111")}}
	assertSame(t, orc.GoodResponse(tst), response.Compute(c, nil, tst))
}

// TestComputeMatchesOracleRandom sweeps random tests, including X
// values and short vectors, under full scan and a reordered partial
// chain.
func TestComputeMatchesOracleRandom(t *testing.T) {
	c := samples.S27()
	faults := fault.Collapse(c)
	ch, err := scan.NewChain(c.NumFFs(), []int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(21))
	rv := func(n int) logic.Vector {
		v := make(logic.Vector, n)
		for i := range v {
			if r.Intn(5) == 0 {
				v[i] = logic.X
			} else {
				v[i] = logic.Value(r.Intn(2))
			}
		}
		return v
	}
	for _, chain := range []*scan.Chain{nil, ch} {
		orc := oracle.NewChain(c, faults, chain)
		for trial := 0; trial < 15; trial++ {
			tst := scan.Test{SI: rv(orc.Nsv())}
			for u := 0; u < 1+r.Intn(4); u++ {
				tst.Seq = append(tst.Seq, rv(c.NumPIs()))
			}
			if trial%4 == 0 && len(tst.SI) > 1 {
				tst.SI = tst.SI[:len(tst.SI)-1] // short SI fills with X
			}
			assertSame(t, orc.GoodResponse(tst), response.Compute(c, chain, tst))
		}
	}
}

func TestComputePartialChainScanOut(t *testing.T) {
	c := samples.ShiftReg(3)
	ch, err := scan.NewChain(3, []int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	// SI "10": q2=1, q0=0, q1=X. One cycle with si=1: q0<-1, q1<-q0=0, q2<-q1=X.
	tst := scan.Test{SI: vec("10"), Seq: logic.Sequence{vec("1")}}
	resp := response.Compute(c, ch, tst)
	if len(resp.ScanOut) != 2 {
		t.Fatalf("scan-out width %d, want 2", len(resp.ScanOut))
	}
	// Chain order: position 0 = q2 (now X), position 1 = q0 (now 1).
	if resp.ScanOut[0] != logic.X || resp.ScanOut[1] != logic.One {
		t.Errorf("scan-out = %s, want x1", resp.ScanOut)
	}
	assertSame(t, oracle.NewChain(c, nil, ch).GoodResponse(tst), resp)
}

func TestForSetAndWrite(t *testing.T) {
	c := samples.S27()
	ts := scan.NewSet(
		scan.Test{SI: vec("000"), Seq: logic.Sequence{vec("0000")}},
		scan.Test{SI: vec("111"), Seq: logic.Sequence{vec("1111"), vec("0000")}},
	)
	resps := response.ForSet(c, nil, ts)
	if len(resps) != 2 {
		t.Fatal("ForSet count wrong")
	}
	orc := oracle.New(c, nil)
	for i, tst := range ts.Tests {
		assertSame(t, orc.GoodResponse(tst), resps[i])
	}
	var sb strings.Builder
	if err := response.Write(&sb, ts, resps); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"response v1", "si 000", "-> po", "so "} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// One "in ... -> po ..." line per functional cycle.
	if got := strings.Count(out, "-> po"); got != 3 {
		t.Errorf("%d po lines, want 3", got)
	}
}

func TestWriteLengthMismatch(t *testing.T) {
	ts := scan.NewSet(scan.Test{SI: vec("000"), Seq: logic.Sequence{vec("0000")}})
	err := response.Write(&strings.Builder{}, ts, nil)
	if err == nil {
		t.Error("mismatched lengths must fail")
	}
}
