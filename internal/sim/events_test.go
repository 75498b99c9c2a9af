package sim

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/logic"
)

// goodRows simulates the uninjected machine from state over seq on the
// kernel at width 1 and returns its trace: one row per vector.
func goodRows(p *Program, state logic.Vector, seq logic.Sequence) [][]logic.Value {
	e := NewBatch(p, 1)
	e.SetStateVector(state)
	rows := make([][]logic.Value, len(seq))
	for u, v := range seq {
		e.SetPIVector(v)
		e.EvalComb()
		rows[u] = make([]logic.Value, p.NumSlots())
		e.Row(rows[u])
		e.ClockFF()
	}
	return rows
}

// filled returns w words carrying v in every slot.
func filled(w int, v logic.Value) logic.WordVec {
	wv := make(logic.WordVec, w)
	wv.Fill(broadcast[v])
	return wv
}

// eventWords returns node n's words after an event frame on row: a
// diverged slot's words, any other slot the row's value.
func eventWords(e *BatchEngine, n int, row []logic.Value) logic.WordVec {
	if e.Diverged(n) {
		return e.Val(n).Clone()
	}
	return filled(e.Width(), row[n])
}

// clockWords returns flip-flop i's words after an EventClock in the
// frame of row: a diverged flip-flop's words, any other the good next
// state.
func clockWords(e *BatchEngine, i int, row []logic.Value) logic.WordVec {
	if slices.Contains(e.DivergedFFs(), int32(i)) {
		return e.State(i).Clone()
	}
	c := e.Circuit()
	return filled(e.Width(), row[c.Nodes[c.DFFs[i]].Fanin[0]])
}

// sameIn reports whether a and b carry the same value in the slots m
// selects.
func sameIn(a, b logic.WordVec, m []uint64) bool {
	for k := range a {
		if (a[k].Zero^b[k].Zero|a[k].One^b[k].One)&m[k] != 0 {
			return false
		}
	}
	return true
}

// TestDropSlots runs two engines through the same event frames with the
// same injections; one drops a set of slots after frame dropAt's clock.
// Dropping every slot empties DivergedFFs, writes the good next state
// into the words of every flip-flop that diverged, and the next frame
// executes only its seeds. Dropping some slots (the whole first word,
// or random ones in every word) leaves the other slots' words
// bit-identical to the engine that did not drop, frame after frame,
// while the dropped slots carry the good machine.
func TestDropSlots(t *testing.T) {
	const w, dropAt = WideWidth, 2
	everySlot := make([]uint64, w)
	for k := range everySlot {
		everySlot[k] = ^uint64(0)
	}
	// Drops that met diverged flip-flops: all slots, and some slots of a
	// flip-flop diverged in them.
	full, merged := 0, 0
	for ci, c := range kernelTestCircuits(t) {
		if c.NumFFs() == 0 {
			continue
		}
		p := Compile(c)
		r := rand.New(rand.NewSource(int64(ci) + 40))
		injs := randInjections(r, c, w, 12)
		state := randXVector(r, c.NumFFs())
		seq := make(logic.Sequence, 8)
		for u := range seq {
			seq[u] = randXVector(r, c.NumPIs())
		}
		rows := goodRows(p, state, seq)
		start := func() (*BatchEngine, int) {
			e := NewBatch(p, w)
			e.SetInjections(injs)
			return e, e.StartEvents()
		}
		goodNext := func(i, u int) logic.WordVec {
			return filled(w, rows[u][c.Nodes[c.DFFs[i]].Fanin[0]])
		}

		all, seeds := start()
		for u := 0; u <= dropAt; u++ {
			all.EventFrame(rows[u])
			all.EventClock()
		}
		before := slices.Clone(all.DivergedFFs())
		full += len(before)
		all.DropSlots(everySlot)
		if d := all.DivergedFFs(); len(d) != 0 {
			t.Fatalf("%s: %d flip-flops still diverge after dropping every slot", c.Name, len(d))
		}
		for _, i := range before {
			if got, want := all.State(int(i)), goodNext(int(i), dropAt); !got.Equal(want) {
				t.Fatalf("%s: flip-flop %d holds %+v after dropping every slot, the good next state %+v", c.Name, i, got, want)
			}
		}
		if got := all.EventFrame(rows[dropAt+1]); got != seeds {
			t.Fatalf("%s: the frame after dropping every slot executed %d instructions, its seeds %d", c.Name, got, seeds)
		}

		firstWord := make([]uint64, w)
		firstWord[0] = ^uint64(0)
		everyWord := make([]uint64, w)
		for k := range everyWord {
			everyWord[k] = r.Uint64()
		}
		for _, mask := range [][]uint64{firstWord, everyWord} {
			live := make([]uint64, w)
			for k := range live {
				live[k] = ^mask[k]
			}
			ref, _ := start()
			drop, _ := start()
			for u, row := range rows {
				ref.EventFrame(row)
				drop.EventFrame(row)
				for n := range c.Nodes {
					got := eventWords(drop, n, row)
					if want := eventWords(ref, n, row); !sameIn(got, want, live) {
						t.Fatalf("%s mask %x frame %d: node %d live slots %+v, without the drop %+v", c.Name, mask, u, n, got, want)
					}
					if u > dropAt && !sameIn(got, filled(w, row[n]), mask) {
						t.Fatalf("%s mask %x frame %d: node %d dropped slots %+v, the good machine %v", c.Name, mask, u, n, got, row[n])
					}
				}
				ref.EventClock()
				drop.EventClock()
				if u == dropAt {
					for _, i := range drop.DivergedFFs() {
						if !sameIn(drop.State(int(i)), goodNext(int(i), u), mask) {
							merged++
						}
					}
					drop.DropSlots(mask)
				}
				for i := range c.DFFs {
					got := clockWords(drop, i, row)
					if want := clockWords(ref, i, row); !sameIn(got, want, live) {
						t.Fatalf("%s mask %x frame %d: flip-flop %d live slots %+v, without the drop %+v", c.Name, mask, u, i, got, want)
					}
					if u >= dropAt && !sameIn(got, goodNext(i, u), mask) {
						t.Fatalf("%s mask %x frame %d: flip-flop %d dropped slots %+v, the good next state %+v", c.Name, mask, u, i, got, goodNext(i, u))
					}
				}
			}
		}
	}
	if full == 0 || merged == 0 {
		t.Fatalf("drops met %d and %d diverged flip-flops: the drop is untested", full, merged)
	}
}
