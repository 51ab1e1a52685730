package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/apps/heat"
	"repro/internal/apps/miniamr"
	"repro/internal/apps/streaming"
	"repro/internal/cluster"
	"repro/internal/collectives"
	"repro/internal/fabric"
	"repro/internal/obs"
)

// workload is one set of simulated jobs the benchmark runs as a round.
// Planning (input construction) happens in the constructor and counts
// towards set-up time; references are computed by prepare, outside every
// timed region.
type workload struct {
	name    string
	largest cluster.Config // geometry of the set-up run
	updates float64        // application work of one round
	jobs    []*job
	prepare func() // computes the check references
}

// job is one cluster.Run of a workload. Before the timed run, reset
// readies the output slots and cfg returns the job's config (with a fresh
// recorder where the job records); check compares what the run produced
// with the reference.
type job struct {
	name  string
	cfg   func() cluster.Config
	main  func(env *cluster.Env)
	reset func()
	check func(res cluster.Result) error
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"gs-wide", "amr-tasks", "obs-mesh"}

// newWorkload builds the named workload for a seed. Sizes are fixed: the
// seed reaches every job through cluster.Config.Seed (MPI and GASPI
// software-cost jitter) and, on obs-mesh, the allreduce input values, so
// the work of a round is the same for every seed.
func newWorkload(name string, seed int64) (*workload, error) {
	switch name {
	case "gs-wide":
		return gsWide(seed), nil
	case "amr-tasks":
		return amrTasks(seed), nil
	case "obs-mesh":
		return obsMesh(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// gs-wide geometry: TAMPI and TAGASPI at 128 nodes x 2 ranks x 4 cores,
// OmniPath, flat topology, no recorder. The MPI-only variant at 64 x 8
// ranks is left out: it intermittently stops with a false virtual-clock
// deadlock (see CHANGES.md), which would end the whole run.
var gsParams = heat.Params{
	Rows: 128 * 2 * 16, Cols: 1024, Timesteps: 4,
	BlockRows: 16, BlockCols: 128, Verify: true,
}

func gsConfig(variant string, seed int64) cluster.Config {
	return cluster.Config{
		Nodes: 128, RanksPerNode: 2, CoresPerRank: 4,
		Profile: fabric.ProfileOmniPath(), Seed: seed,
		WithTasking: true, WithTAMPI: variant == "TAMPI", WithTAGASPI: variant == "TAGASPI",
		TAMPIPoll: 5 * time.Microsecond, TAGASPIPoll: 5 * time.Microsecond,
	}
}

func gsWide(seed int64) *workload {
	p := gsParams
	w := &workload{name: "gs-wide", largest: gsConfig("TAGASPI", seed)}
	var ref []float64
	w.prepare = func() { ref = heat.Serial(p) }
	for _, v := range []string{"TAMPI", "TAGASPI"} {
		v := v
		cfg := gsConfig(v, seed)
		var strips [][]float64
		w.updates += p.Updates()
		w.jobs = append(w.jobs, &job{
			name:  "heat/" + v,
			cfg:   func() cluster.Config { return cfg },
			reset: func() { strips = make([][]float64, cfg.Nodes*cfg.RanksPerNode) },
			main: func(env *cluster.Env) {
				if v == "TAMPI" {
					strips[env.Rank] = heat.RunTAMPI(env, p).Strip()
				} else {
					strips[env.Rank] = heat.RunTAGASPI(env, p).Strip()
				}
			},
			check: func(cluster.Result) error { return checkHeat(ref, p.Cols, strips) },
		})
	}
	return w
}

// amr-tasks geometry: TAMPI and TAGASPI at 4 nodes x 2 ranks x 4 cores.
var amrParams = miniamr.Params{
	Grid: [3]int{4, 4, 4}, Cells: 4, Vars: 20,
	Steps: 20, RefineEvery: 5, MaxLevel: 2, Radius: 0.45, Verify: true,
}

func amrConfig(variant string, seed int64) cluster.Config {
	return cluster.Config{
		Nodes: 4, RanksPerNode: 2, CoresPerRank: 4,
		Profile: fabric.ProfileOmniPath(), Seed: seed,
		WithTasking: true, WithTAMPI: true, WithTAGASPI: variant == "TAGASPI",
		TAMPIPoll: 5 * time.Microsecond, TAGASPIPoll: 5 * time.Microsecond,
	}
}

func amrTasks(seed int64) *workload {
	p := amrParams
	w := &workload{name: "amr-tasks", largest: amrConfig("TAGASPI", seed)}
	epochs := p.Epochs(w.largest.Nodes * w.largest.RanksPerNode)
	var ref map[miniamr.Leaf][]float64
	w.prepare = func() { ref = miniamr.Serial(p) }
	for _, v := range []string{"TAMPI", "TAGASPI"} {
		v := v
		cfg := amrConfig(v, seed)
		var parts []map[miniamr.Leaf][]float64
		w.updates += miniamr.Work(p, epochs)
		w.jobs = append(w.jobs, &job{
			name:  "miniamr/" + v,
			cfg:   func() cluster.Config { return cfg },
			reset: func() { parts = make([]map[miniamr.Leaf][]float64, cfg.Nodes*cfg.RanksPerNode) },
			main: func(env *cluster.Env) {
				if v == "TAMPI" {
					parts[env.Rank] = miniamr.RunTAMPI(env, p, epochs).Blocks
				} else {
					parts[env.Rank] = miniamr.RunTAGASPI(env, p, epochs).Blocks
				}
			},
			check: func(cluster.Result) error { return checkAMR(ref, parts) },
		})
	}
	return w
}

// obs-mesh geometry: 9 nodes on a 3x3 mesh, one rank per node, InfiniBand,
// every job recorded by an obs.Collector (so cluster.Run derives the
// critical-path blame report).
const meshNodes = 9

var streamParams = streaming.Params{Chunks: 16, ChunkElems: 8192, BlockSize: 256, Verify: true}

// Allreduce input: arVec elements (divisible by meshNodes) per rank, arRounds
// rounds per backend, each round with its own seeded input vectors.
const (
	arVec    = 1152
	arRounds = 16
)

var arBackends = []string{"mpi", "gaspi", "tagaspi"}

func meshConfig(seed int64, cores int, tagaspi bool) cluster.Config {
	return cluster.Config{
		Nodes: meshNodes, RanksPerNode: 1, CoresPerRank: cores,
		Profile: fabric.ProfileInfiniBand(), Shape: fabric.ShapeMesh2D, Seed: seed,
		WithTasking: tagaspi, WithTAGASPI: tagaspi, TAGASPIPoll: time.Microsecond,
	}
}

func obsMesh(seed int64) *workload {
	sp := streamParams
	w := &workload{name: "obs-mesh", largest: meshConfig(seed, 4, true)}
	w.largest.Recorder = obs.NewCollector(meshNodes)
	inputs := allreduceInputs(seed, meshNodes, arRounds, arVec)
	var wantSum float64
	var wantAR [][]float64
	w.prepare = func() {
		wantSum = streaming.ExpectedChecksum(sp, meshNodes)
		wantAR = allreduceReference(inputs)
	}

	var mu sync.Mutex
	var sum float64
	w.updates += sp.Elements()
	w.jobs = append(w.jobs, &job{
		name: "streaming/TAGASPI",
		cfg: func() cluster.Config {
			cfg := meshConfig(seed, 4, true)
			cfg.Recorder = obs.NewCollector(meshNodes)
			return cfg
		},
		reset: func() { sum = 0 },
		main: func(env *cluster.Env) {
			get := streaming.RunTAGASPI(env, sp)
			env.RT.TaskWait()
			mu.Lock()
			sum += get()
			mu.Unlock()
		},
		check: func(res cluster.Result) error {
			if err := checkChecksum(sum, wantSum); err != nil {
				return err
			}
			return checkMakespan(res)
		},
	})

	for _, b := range arBackends {
		b := b
		var outs [][][]float64 // [rank][round][elem]
		w.updates += float64(arVec * arRounds)
		w.jobs = append(w.jobs, &job{
			name: "allreduce/" + b,
			cfg: func() cluster.Config {
				cfg := meshConfig(seed, 1, b == "tagaspi")
				if b == "tagaspi" {
					cfg.CoresPerRank = 2
				}
				cfg.Recorder = obs.NewCollector(meshNodes)
				return cfg
			},
			reset: func() {
				outs = make([][][]float64, meshNodes)
				for r := range outs {
					outs[r] = make([][]float64, arRounds)
					for k := range outs[r] {
						outs[r][k] = make([]float64, arVec)
					}
				}
			},
			main: func(env *cluster.Env) { runAllreduce(env, b, inputs[env.Rank], outs[env.Rank]) },
			check: func(res cluster.Result) error {
				if err := checkAllreduce(wantAR, outs); err != nil {
					return err
				}
				return checkMakespan(res)
			},
		})
	}
	return w
}

// runAllreduce issues one Allreduce per round on the named backend, each
// round into its own output vector so every round's result can be checked.
func runAllreduce(env *cluster.Env, backend string, in, out [][]float64) {
	opts := []collectives.Option{
		collectives.WithRecorder(env.Cfg.Recorder),
		collectives.WithElemCost(env.CostOf(1)),
	}
	var c *collectives.Comm
	var err error
	switch backend {
	case "mpi":
		c = collectives.NewMPI(env.MPI, arVec, opts...)
	case "gaspi":
		c, err = collectives.NewGASPI(env.GASPI, arVec, opts...)
	default:
		c, err = collectives.NewTAGASPI(env.TAGASPI, env.RT, arVec, opts...)
	}
	if err != nil {
		panic(err)
	}
	for k := range in {
		c.Allreduce(in[k], out[k], collectives.Sum)
	}
	c.Drain()
}

// allreduceInputs draws every rank's input vectors from the seed: small
// integers, so any combine order sums them exactly and the closed-form sum
// is the one right answer.
func allreduceInputs(seed int64, ranks, rounds, n int) [][][]float64 {
	state := uint64(seed)
	in := make([][][]float64, ranks)
	for r := range in {
		in[r] = make([][]float64, rounds)
		for k := range in[r] {
			v := make([]float64, n)
			for i := range v {
				state += 0x9e3779b97f4a7c15
				v[i] = float64(int64(mix64(state)%2001) - 1000)
			}
			in[r][k] = v
		}
	}
	return in
}

// allreduceReference is the closed-form element-wise sum over ranks.
func allreduceReference(in [][][]float64) [][]float64 {
	want := make([][]float64, len(in[0]))
	for k := range want {
		want[k] = make([]float64, len(in[0][k]))
		for r := range in {
			for i, x := range in[r][k] {
				want[k][i] += x
			}
		}
	}
	return want
}

// mix64 is the splitmix64 output function.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
