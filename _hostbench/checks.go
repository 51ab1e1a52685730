package main

import (
	"fmt"
	"math"

	"repro/internal/apps/miniamr"
	"repro/internal/cluster"
)

// The checks compare a job's outputs with references computed apart from
// the simulated run: the serial solvers, closed forms, and the virtual
// clock. Floating-point results must match bit for bit, because the
// distributed variants promise the serial sweep order.

// checkHeat compares every rank's strip, in rank order, with the interior
// rows of heat.Serial's (Rows+2) x cols matrix.
func checkHeat(ref []float64, cols int, strips [][]float64) error {
	k := cols // skip the top boundary row
	for r, s := range strips {
		if len(s) == 0 || len(s)%cols != 0 {
			return fmt.Errorf("heat: rank %d strip has %d values, not whole rows of %d", r, len(s), cols)
		}
		if k+len(s) > len(ref)-cols {
			return fmt.Errorf("heat: strips overrun the %d interior rows", len(ref)/cols-2)
		}
		for i, x := range s {
			if math.Float64bits(x) != math.Float64bits(ref[k+i]) {
				return fmt.Errorf("heat: rank %d cell (%d,%d) = %v, serial %v",
					r, (k+i)/cols, (k+i)%cols, x, ref[k+i])
			}
		}
		k += len(s)
	}
	if k != len(ref)-cols {
		return fmt.Errorf("heat: strips cover %d of %d interior rows", k/cols-1, len(ref)/cols-2)
	}
	return nil
}

// checkAMR requires the ranks' final blocks to form exactly the serial leaf
// set, each leaf owned once, with bit-identical interiors.
func checkAMR(ref map[miniamr.Leaf][]float64, parts []map[miniamr.Leaf][]float64) error {
	seen := make(map[miniamr.Leaf]int, len(ref))
	for r, part := range parts {
		for l, got := range part {
			if prev, dup := seen[l]; dup {
				return fmt.Errorf("miniamr: leaf %+v owned by ranks %d and %d", l, prev, r)
			}
			seen[l] = r
			want, ok := ref[l]
			if !ok {
				return fmt.Errorf("miniamr: rank %d holds leaf %+v, absent from the serial mesh", r, l)
			}
			if len(got) != len(want) {
				return fmt.Errorf("miniamr: leaf %+v has %d values, serial %d", l, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					return fmt.Errorf("miniamr: leaf %+v value %d = %v, serial %v", l, i, got[i], want[i])
				}
			}
		}
	}
	if len(seen) != len(ref) {
		return fmt.Errorf("miniamr: ranks hold %d leaves, serial mesh has %d", len(seen), len(ref))
	}
	return nil
}

// checkChecksum requires the streaming checksum to equal the closed form
// exactly: every stage function is an exact integer map on these inputs.
func checkChecksum(got, want float64) error {
	if math.Float64bits(got) != math.Float64bits(want) {
		return fmt.Errorf("streaming: checksum %v, closed form %v", got, want)
	}
	return nil
}

// checkAllreduce requires every rank's output of every round to equal the
// closed-form sum of that round's inputs.
func checkAllreduce(want [][]float64, got [][][]float64) error {
	for r, rounds := range got {
		if len(rounds) != len(want) {
			return fmt.Errorf("allreduce: rank %d ran %d rounds, want %d", r, len(rounds), len(want))
		}
		for k, out := range rounds {
			if len(out) != len(want[k]) {
				return fmt.Errorf("allreduce: rank %d round %d has %d elements, want %d", r, k, len(out), len(want[k]))
			}
			for i, x := range out {
				if math.Float64bits(x) != math.Float64bits(want[k][i]) {
					return fmt.Errorf("allreduce: rank %d round %d element %d = %v, sum of inputs %v",
						r, k, i, x, want[k][i])
				}
			}
		}
	}
	return nil
}

// checkMakespan requires the critical-path makespan derived from the trace
// to equal the elapsed time the virtual clock reports.
func checkMakespan(res cluster.Result) error {
	if res.Blame == nil {
		return fmt.Errorf("critpath: no blame report for an instrumented run")
	}
	if res.Blame.Makespan != res.Elapsed {
		return fmt.Errorf("critpath: makespan %v, clock elapsed %v", res.Blame.Makespan, res.Elapsed)
	}
	return nil
}
