package oracle

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/esim"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/logic"
	"repro/internal/samples"
	"repro/internal/scan"
	"repro/internal/sim"
)

// corpusTest builds a deterministic seed test for a sample circuit.
func corpusTest(c *circuit.Circuit, cycles int) scan.Test {
	t := scan.Test{SI: make(logic.Vector, c.NumFFs())}
	for i := range t.SI {
		t.SI[i] = logic.Value(i % 2)
	}
	for u := 0; u < cycles; u++ {
		v := make(logic.Vector, c.NumPIs())
		for i := range v {
			v[i] = logic.Value((u + i) % 3 % 2)
			if (u+i)%5 == 4 {
				v[i] = logic.X
			}
		}
		t.Seq = append(t.Seq, v)
	}
	return t
}

func corpusCircuits() []*circuit.Circuit {
	return []*circuit.Circuit{
		samples.S27(), samples.Toggle(), samples.ShiftReg(3), samples.Comb4(),
	}
}

// TestFuzzEncodeRoundtrip checks that the corpus seeds decode back to
// behaviorally identical circuits: same interface counts and the same
// good-machine response on the encoded test.
func TestFuzzEncodeRoundtrip(t *testing.T) {
	for _, c := range corpusCircuits() {
		tst := corpusTest(c, 5)
		data, err := EncodeFuzz(c, tst)
		if err != nil {
			t.Fatalf("%s: encode: %v", c.Name, err)
		}
		dc, dt, err := DecodeFuzz(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", c.Name, err)
		}
		if dc.NumPIs() != c.NumPIs() || dc.NumFFs() != c.NumFFs() || dc.NumPOs() != c.NumPOs() {
			t.Fatalf("%s: interface changed: %d/%d/%d → %d/%d/%d", c.Name,
				c.NumPIs(), c.NumFFs(), c.NumPOs(), dc.NumPIs(), dc.NumFFs(), dc.NumPOs())
		}
		want := New(c, nil).GoodResponse(tst)
		got := New(dc, nil).GoodResponse(dt)
		if !responsesEqual(want, got) {
			t.Fatalf("%s: decoded circuit responds differently", c.Name)
		}
	}
}

// FuzzDifferential cross-checks fsim against the oracle on fuzzer-shaped
// circuits and tests, serial and with a worker pool. Any byte string is a valid input; the decoder
// guarantees a well-formed netlist. (vecomit's FuzzOmissionDifferential
// drives the omission engine with the same encoding.)
func FuzzDifferential(f *testing.F) {
	for _, c := range corpusCircuits() {
		if data, err := EncodeFuzz(c, corpusTest(c, 6)); err == nil {
			f.Add(data)
		} else {
			f.Fatalf("%s: corpus encode: %v", c.Name, err)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, tst, err := DecodeFuzz(data)
		if err != nil {
			t.Skip()
		}
		faults := fault.Collapse(c)
		orc := New(c, faults)
		want := orc.Detect(tst.Seq, Options{Init: tst.SI, ScanOut: true})
		for _, workers := range []int{1, 4} {
			fs := fsim.New(c, faults).SetWorkers(workers)
			if got := fs.Detect(tst.Seq, fsim.Options{Init: tst.SI, ScanOut: true}); !got.Equal(want) {
				t.Fatalf("workers=%d: sets differ: fsim %v, oracle %v",
					workers, got.Indices(), want.Indices())
			}
		}
	})
}

// FuzzKernelDifferential cross-checks the compiled batch kernel against
// the event-driven engine node for node on fuzzer-shaped circuits. The
// faults go straight into BatchEngine injections, one per slot, in
// batches at both kernel widths (1 word and sim.WideWidth), and each
// slot is compared with an esim engine carrying its fault, so the
// kernel's compile/decompose/patch machinery itself is what the fuzzer
// stresses, independent of how fsim packs its passes.
func FuzzKernelDifferential(f *testing.F) {
	for _, c := range corpusCircuits() {
		if data, err := EncodeFuzz(c, corpusTest(c, 6)); err == nil {
			f.Add(data)
		} else {
			f.Fatalf("%s: corpus encode: %v", c.Name, err)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, tst, err := DecodeFuzz(data)
		if err != nil {
			t.Skip()
		}
		faults := fault.Collapse(c)
		prog := sim.Compile(c)
		for _, words := range []int{1, sim.WideWidth} {
			be := sim.NewBatch(prog, words)
			// Slot 0 carries the good machine and each other slot one
			// fault, so a batch holds 64*words-1 of them.
			chunk := 64*words - 1
			for start := 0; start < len(faults); start += chunk {
				refs := []*esim.Engine{esim.New(c)}
				var injs []sim.BatchInjection
				for i, fl := range faults[start:min(start+chunk, len(faults))] {
					slot := i + 1
					mask := make([]uint64, words)
					mask[slot>>6] = 1 << (uint(slot) & 63)
					injs = append(injs, fl.Injection(mask))
					e := esim.New(c)
					e.InjectFault(fl.Node, fl.Pin, fl.Stuck)
					refs = append(refs, e)
				}
				be.Reset()
				be.SetInjections(injs)
				be.SetStateVector(tst.SI)
				for _, e := range refs {
					e.SetStateVector(tst.SI)
				}
				// compare checks every slot of every node against the
				// engine standing for it: its fault's, or the good one.
				compare := func(u int, phase string) {
					for n := 0; n < c.NumNodes(); n++ {
						wv := be.Val(n)
						for slot := 0; slot < wv.Slots(); slot++ {
							ref := refs[0]
							if slot < len(refs) {
								ref = refs[slot]
							}
							if got, want := wv.Get(slot), ref.Val(n); got != want {
								t.Fatalf("words=%d faults %d+ u=%d %s node %d (%s) slot %d: kernel %v, esim %v",
									words, start, u, phase, n, c.Nodes[n].Name, slot, got, want)
							}
						}
					}
				}
				for u, vec := range tst.Seq {
					be.SetPIVector(vec)
					be.EvalComb()
					for _, e := range refs {
						e.SetPIVector(vec)
						e.Settle()
					}
					compare(u, "eval")
					be.ClockFF()
					for _, e := range refs {
						e.ClockFF()
					}
					compare(u, "clock")
				}
			}
		}
	})
}
