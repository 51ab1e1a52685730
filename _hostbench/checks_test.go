package main

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/apps/heat"
	"repro/internal/apps/miniamr"
	"repro/internal/apps/streaming"
	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/mpisim"
	"repro/internal/obs"
)

// Each test runs a small job through the same app entry points as the
// workloads, requires its check to pass, then perturbs the output by the
// smallest meaningful amount and requires the check to fail.

func flipLowBit(x float64) float64 { return math.Float64frombits(math.Float64bits(x) ^ 1) }

func TestCheckHeatDetectsOneFlippedCell(t *testing.T) {
	p := heat.Params{Rows: 16, Cols: 32, Timesteps: 3, BlockRows: 4, BlockCols: 8, Verify: true}
	cfg := cluster.Config{Nodes: 2, RanksPerNode: 2, CoresPerRank: 2, Profile: fabric.ProfileOmniPath(),
		WithTasking: true, WithTAGASPI: true, TAGASPIPoll: 5 * time.Microsecond}
	strips := make([][]float64, 4)
	cluster.Run(cfg, func(env *cluster.Env) { strips[env.Rank] = heat.RunTAGASPI(env, p).Strip() })
	ref := heat.Serial(p)
	if err := checkHeat(ref, p.Cols, strips); err != nil {
		t.Fatalf("unperturbed strips: %v", err)
	}
	strips[2][p.Cols+5] = flipLowBit(strips[2][p.Cols+5])
	if checkHeat(ref, p.Cols, strips) == nil {
		t.Fatal("a flipped cell passed the check")
	}
	strips[2][p.Cols+5] = flipLowBit(strips[2][p.Cols+5])
	if checkHeat(ref, p.Cols, strips[:3]) == nil {
		t.Fatal("a missing strip passed the check")
	}
}

func TestCheckAMRDetectsDroppedLeaf(t *testing.T) {
	p := miniamr.Params{Grid: [3]int{2, 2, 2}, Cells: 4, Vars: 2, Steps: 4, RefineEvery: 2,
		MaxLevel: 1, Radius: 0.5, Verify: true}
	cfg := cluster.Config{Nodes: 2, RanksPerNode: 1, CoresPerRank: 2, Profile: fabric.ProfileOmniPath(),
		WithTasking: true, WithTAMPI: true, WithTAGASPI: true,
		TAMPIPoll: 5 * time.Microsecond, TAGASPIPoll: 5 * time.Microsecond}
	epochs := p.Epochs(2)
	parts := make([]map[miniamr.Leaf][]float64, 2)
	cluster.Run(cfg, func(env *cluster.Env) { parts[env.Rank] = miniamr.RunTAGASPI(env, p, epochs).Blocks })
	ref := miniamr.Serial(p)
	if err := checkAMR(ref, parts); err != nil {
		t.Fatalf("unperturbed blocks: %v", err)
	}
	var leaf miniamr.Leaf
	var vals []float64
	for leaf, vals = range parts[1] {
		break
	}
	delete(parts[1], leaf)
	if checkAMR(ref, parts) == nil {
		t.Fatal("a dropped leaf passed the check")
	}
	parts[0][leaf] = vals
	parts[1][leaf] = vals
	if checkAMR(ref, parts) == nil {
		t.Fatal("a leaf owned twice passed the check")
	}
	delete(parts[0], leaf)
	vals[0] = flipLowBit(vals[0])
	if checkAMR(ref, parts) == nil {
		t.Fatal("a flipped value passed the check")
	}
}

func TestCheckChecksumDetectsOneULP(t *testing.T) {
	p := streaming.Params{Chunks: 4, ChunkElems: 256, BlockSize: 32, Verify: true}
	cfg := meshConfig(7, 2, true)
	cfg.Nodes = 4
	var mu sync.Mutex
	sum := 0.0
	cluster.Run(cfg, func(env *cluster.Env) {
		get := streaming.RunTAGASPI(env, p)
		env.RT.TaskWait()
		mu.Lock()
		sum += get()
		mu.Unlock()
	})
	want := streaming.ExpectedChecksum(p, 4)
	if err := checkChecksum(sum, want); err != nil {
		t.Fatalf("unperturbed checksum: %v", err)
	}
	if checkChecksum(math.Nextafter(sum, math.Inf(1)), want) == nil {
		t.Fatal("a checksum one ulp off passed the check")
	}
}

func TestCheckAllreduceDetectsChangedElement(t *testing.T) {
	const ranks, rounds = 3, 2
	in := allreduceInputs(11, ranks, rounds, arVec)
	want := allreduceReference(in)
	for _, b := range arBackends {
		cfg := meshConfig(11, 1, b == "tagaspi")
		cfg.Nodes = ranks
		if b == "tagaspi" {
			cfg.CoresPerRank = 2
		}
		outs := make([][][]float64, ranks)
		for r := range outs {
			outs[r] = [][]float64{make([]float64, arVec), make([]float64, arVec)}
		}
		cluster.Run(cfg, func(env *cluster.Env) { runAllreduce(env, b, in[env.Rank], outs[env.Rank]) })
		if err := checkAllreduce(want, outs); err != nil {
			t.Fatalf("%s: unperturbed outputs: %v", b, err)
		}
		outs[ranks-1][1][arVec-1]++
		if checkAllreduce(want, outs) == nil {
			t.Fatalf("%s: a changed element passed the check", b)
		}
	}
}

func TestCheckMakespanDetectsMismatch(t *testing.T) {
	cfg := meshConfig(3, 1, false)
	cfg.Nodes = 4
	cfg.Recorder = obs.NewCollector(4)
	res := cluster.Run(cfg, func(env *cluster.Env) {
		buf := make([]byte, 64)
		next := (int(env.Rank) + 1) % 4
		prev := (int(env.Rank) + 3) % 4
		env.MPI.Waitall([]*mpisim.Request{env.MPI.Isend(buf, mpisim.Rank(next), 0), env.MPI.Irecv(make([]byte, 64), mpisim.Rank(prev), 0)})
	})
	if err := checkMakespan(res); err != nil {
		t.Fatalf("unperturbed run: %v", err)
	}
	res.Elapsed += time.Nanosecond
	if checkMakespan(res) == nil {
		t.Fatal("an elapsed time one nanosecond off passed the check")
	}
	res.Blame = nil
	if checkMakespan(res) == nil {
		t.Fatal("a run without a blame report passed the check")
	}
}
