package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps/streaming"
	"repro/internal/cluster"
	"repro/internal/collectives"
	"repro/internal/fabric"
	"repro/internal/gaspisim"
	"repro/internal/mpisim"
	"repro/internal/obs"
	"repro/internal/obs/critpath"
	"repro/internal/tasking"
	"repro/internal/vclock"
	"repro/internal/vsync"
)

// Each micro-benchmark times one layer's public calls in the shape the
// apps drive them and puts the median over microReps batches into m.
var microBenchmarks = []func(m metrics){
	func(m metrics) { m.put("vclock.sleep_ns", vclockSleep(), "ns/op") },
	func(m metrics) { m.put("vclock.park_unpark_ns", vclockParkUnpark(), "ns/op") },
	func(m metrics) { m.put("vsync.queue_ns", vsyncQueue(), "ns/op") },
	func(m metrics) { m.put("vsync.resource_ns", vsyncResource(), "ns/op") },
	func(m metrics) {
		ns, allocs := fabricSend(fabric.ShapeFlat, 2)
		m.put("fabric.send_flat_ns", ns, "ns/op")
		m.put("fabric.send_allocs", allocs, "allocs/op")
	},
	func(m metrics) {
		ns, _ := fabricSend(fabric.ShapeMesh2D, 9)
		m.put("fabric.send_mesh_ns", ns, "ns/op")
	},
	func(m metrics) { m.put("mpisim.sendrecv_ns", mpiSendRecv(), "ns/op") },
	func(m metrics) { m.put("gaspisim.write_notify_ns", gaspiWriteNotify(), "ns/op") },
	func(m metrics) {
		ns, allocs := taskingSubmit()
		m.put("tasking.submit_dep_ns", ns, "ns/op")
		m.put("tasking.submit_allocs", allocs, "allocs/op")
	},
	func(m metrics) { m.put("tampi.iwait_ns", tampiIwait(), "ns/op") },
	func(m metrics) { m.put("tagaspi.notify_iwait_ns", tagaspiNotifyIwait(), "ns/op") },
	func(m metrics) { m.put("collectives.allreduce_us", collAllreduce(), "us/op") },
	func(m metrics) { m.put("obs.record_ns", obsRecord(), "ns/op") },
	func(m metrics) { m.put("critpath.analyze_ns_per_event", critpathAnalyze(), "ns/op") },
	func(m metrics) { m.put("cluster.setup_us_per_rank", clusterSetup(), "us/op") },
	func(m metrics) { m.put("miniamr.plan_ms", miniamrPlan(), "ms/op") },
}

const microReps = 5

// window is the number of operations in flight per wake-up, as in the
// courier's batched draining and the apps' per-step request windows.
const window = 64

// perOp runs batch microReps times and returns the median host time per
// operation in units of scale (1 for ns, 1e3 for µs, 1e6 for ms).
func perOp(scale float64, batch func() (time.Duration, int)) float64 {
	xs := make([]float64, microReps)
	for i := range xs {
		d, ops := batch()
		xs[i] = float64(d.Nanoseconds()) / float64(ops) / scale
	}
	return median(xs)
}

// onClock runs fns on goroutines registered with clk and waits for all.
func onClock(clk vclock.Clock, fns ...func()) {
	var wg sync.WaitGroup
	for _, fn := range fns {
		fn := fn
		wg.Add(1)
		clk.Go(func() {
			defer wg.Done()
			fn()
		})
	}
	wg.Wait()
}

func vclockSleep() float64 {
	const n = 20000
	clk := vclock.NewVirtual()
	return perOp(1, func() (time.Duration, int) {
		t0 := time.Now()
		onClock(clk, func() {
			for i := 0; i < n; i++ {
				clk.Sleep(time.Microsecond)
			}
		})
		return time.Since(t0), n
	})
}

func vclockParkUnpark() float64 {
	const n = 20000
	clk := vclock.NewVirtual()
	a, b := clk.Parker(), clk.Parker()
	return perOp(1, func() (time.Duration, int) {
		t0 := time.Now()
		onClock(clk, func() {
			for i := 0; i < n; i++ {
				b.Unpark()
				a.Park()
			}
		}, func() {
			for i := 0; i < n; i++ {
				b.Park()
				a.Unpark()
			}
		})
		return time.Since(t0), n
	})
}

func vsyncQueue() float64 {
	const windows = 500
	const n = windows * window
	clk := vclock.NewVirtual()
	q := vsync.NewQueue[int](clk)
	return perOp(1, func() (time.Duration, int) {
		t0 := time.Now()
		onClock(clk, func() {
			for w := 0; w < windows; w++ {
				for i := 0; i < window; i++ {
					q.Push(i)
				}
				clk.Sleep(time.Microsecond)
			}
		}, func() {
			var buf []int
			for got := 0; got < n; {
				items, _ := q.PopAll(buf)
				got += len(items)
				buf = items[:0]
			}
		})
		return time.Since(t0), n
	})
}

func vsyncResource() float64 {
	const users, each = 4, 5000
	clk := vclock.NewVirtual()
	r := vsync.NewResource(clk)
	use := func() {
		for i := 0; i < each; i++ {
			r.Use(100 * time.Nanosecond)
		}
	}
	return perOp(1, func() (time.Duration, int) {
		t0 := time.Now()
		onClock(clk, use, use, use, use)
		return time.Since(t0), users * each
	})
}

// fabricSend measures one uninstrumented Send through injection and
// delivery from node 0 to the last node, a window of messages per wake-up
// of the sending rank, and the heap allocations per message. On the 3x3
// mesh the route crosses four links. The sender is a clock-registered
// goroutine, as rank mains are.
func fabricSend(shape fabric.Shape, nodes int) (nsPerMsg, allocsPerMsg float64) {
	const windows = 300
	const n = windows * window
	clk := vclock.NewVirtual()
	f := fabric.New(clk, fabric.NewShapedTopology(shape, nodes, 1), fabric.ProfileOmniPath())
	dst := fabric.Rank(nodes - 1)
	sender := clk.Parker()
	var delivered atomic.Int64
	f.Register(dst, fabric.ClassMPI, func(*fabric.Message) {
		if delivered.Add(1)%window == 0 {
			sender.Unpark()
		}
	})
	send := func(windows int) {
		onClock(clk, func() {
			for w := 0; w < windows; w++ {
				for i := 0; i < window; i++ {
					m := fabric.NewMessage()
					m.Src, m.Dst, m.Class, m.Size = 0, dst, fabric.ClassMPI, 256
					f.Send(m)
				}
				sender.Park()
			}
		})
	}
	send(1) // warm up: courier start, queue growth, pool fill
	var allocs uint64
	nsPerMsg = perOp(1, func() (time.Duration, int) {
		a0 := readMem().Mallocs
		t0 := time.Now()
		send(windows)
		d := time.Since(t0)
		allocs = readMem().Mallocs - a0
		return d, n
	})
	f.Close()
	return nsPerMsg, float64(allocs) / n
}

// mpiSendRecv measures matched Isend/Irecv pairs between two ranks, a
// window of distinct tags per Waitall.
func mpiSendRecv() float64 {
	const iters = 100
	clk := vclock.NewVirtual()
	fab := fabric.New(clk, fabric.NewTopology(2, 1), fabric.ProfileOmniPath())
	w := mpisim.NewWorld(fab, 1)
	bufs := make([][]byte, 2*window)
	for i := range bufs {
		bufs[i] = make([]byte, 256)
	}
	v := perOp(1, func() (time.Duration, int) {
		t0 := time.Now()
		onClock(clk, func() {
			p := w.Proc(0)
			reqs := make([]*mpisim.Request, window)
			for it := 0; it < iters; it++ {
				for i := range reqs {
					reqs[i] = p.Isend(bufs[i], 1, i)
				}
				p.Waitall(reqs)
			}
		}, func() {
			p := w.Proc(1)
			reqs := make([]*mpisim.Request, window)
			for it := 0; it < iters; it++ {
				for i := range reqs {
					reqs[i] = p.Irecv(bufs[window+i], 0, i)
				}
				p.Waitall(reqs)
			}
		})
		return time.Since(t0), iters * window
	})
	fab.Close()
	return v
}

// gaspiWriteNotify measures write_notify from rank 0 with local completion
// collected by gaspi_request_wait, the target waiting each notification
// with gaspi_notify_waitsome and resetting it.
func gaspiWriteNotify() float64 {
	const n = 3000
	clk := vclock.NewVirtual()
	fab := fabric.New(clk, fabric.NewTopology(2, 1), fabric.ProfileOmniPath())
	w := gaspisim.NewWorld(fab, 2, 1)
	create := func(r gaspisim.Rank) func() {
		return func() {
			if _, err := w.Proc(r).SegmentCreate(0, 4096); err != nil {
				panic(err)
			}
		}
	}
	onClock(clk, create(0), create(1))
	v := perOp(1, func() (time.Duration, int) {
		t0 := time.Now()
		onClock(clk, func() {
			p := w.Proc(0)
			for i := 0; i < n; i++ {
				if err := p.WriteNotify(0, 0, 1, 0, 0, 1024, 0, 1, 0, nil); err != nil {
					panic(err)
				}
				for got := 0; got < 2; {
					got += len(p.RequestWait(0, 4, gaspisim.Block))
				}
			}
		}, func() {
			p := w.Proc(1)
			for i := 0; i < n; i++ {
				p.NotifyWaitSome(0, 0, 1, gaspisim.Block)
				p.NotifyReset(0, 0)
			}
		})
		return time.Since(t0), n
	})
	fab.Close()
	return v
}

// taskingSubmit measures task submission with region dependencies through
// execution: each task writes one of window regions and reads its
// neighbour, so every submit registers two accesses and most tasks wait on
// a predecessor.
func taskingSubmit() (nsPerTask, allocsPerTask float64) {
	const n = 20000
	clk := vclock.NewVirtual()
	rt := tasking.New(clk, tasking.Config{Cores: 4})
	var key int
	body := func(*tasking.Task) {}
	var allocs uint64
	nsPerTask = perOp(1, func() (time.Duration, int) {
		a0 := readMem().Mallocs
		t0 := time.Now()
		onClock(clk, func() {
			for i := 0; i < n; i++ {
				r, nb := i%window, (i+1)%window
				rt.Submit(body, tasking.WithDeps(
					tasking.InOut(&key, r, r+1), tasking.In(&key, nb, nb+1)))
			}
			rt.TaskWait()
		})
		d := time.Since(t0)
		allocs = readMem().Mallocs - a0
		return d, n
	})
	onClock(clk, rt.Shutdown)
	return nsPerTask, float64(allocs) / n
}

// taskPairConfig is a two-node hybrid job for the task-aware micro-benchmarks.
func taskPairConfig() cluster.Config {
	return cluster.Config{
		Nodes: 2, RanksPerNode: 1, CoresPerRank: 2,
		Profile:     fabric.ProfileOmniPath(),
		WithTasking: true, WithTAMPI: true, WithTAGASPI: true,
		TAMPIPoll: time.Microsecond, TAGASPIPoll: time.Microsecond,
	}
}

// timedOnRank1 runs a two-rank job whose rank 1 reports each batch's host
// time; it returns the median nanoseconds per operation.
func timedOnRank1(ops int, main func(env *cluster.Env, batch func(func()))) float64 {
	xs := make([]float64, 0, microReps)
	cluster.Run(taskPairConfig(), func(env *cluster.Env) {
		main(env, func(fn func()) {
			t0 := time.Now()
			fn()
			if env.Rank == 1 {
				xs = append(xs, float64(time.Since(t0).Nanoseconds())/float64(ops))
			}
		})
	})
	return median(xs)
}

// tampiIwait measures receive tasks that bind an Irecv with TAMPI_Iwait,
// a window per taskwait, fed by plain non-blocking sends.
func tampiIwait() float64 {
	const iters = 40
	return timedOnRank1(iters*window, func(env *cluster.Env, batch func(func())) {
		bufs := make([][]byte, window)
		for i := range bufs {
			bufs[i] = make([]byte, 256)
		}
		for rep := 0; rep < microReps; rep++ {
			batch(func() {
				for it := 0; it < iters; it++ {
					if env.Rank == 0 {
						reqs := make([]*mpisim.Request, window)
						for j := range reqs {
							reqs[j] = env.MPI.Isend(bufs[j], 1, j)
						}
						env.MPI.Waitall(reqs)
						continue
					}
					for j := 0; j < window; j++ {
						j := j
						env.RT.Submit(func(tk *tasking.Task) {
							env.TAMPI.Iwait(tk, env.MPI.Irecv(bufs[j], 0, j))
						}, tasking.WithDeps(tasking.Out(&bufs, j, j+1)))
					}
					env.RT.TaskWait()
				}
			})
		}
	})
}

// tagaspiNotifyIwait measures tasks that wait a notification with
// tagaspi_notify_iwait, a window per taskwait. Rank 0 posts the window's
// notifications from a task with tagaspi_notify and waits rank 1's
// acknowledgement before reusing the ids. Every GASPI operation goes
// through the task-aware library: its poller owns the queues' completions.
func tagaspiNotifyIwait() float64 {
	const iters = 40
	const seg gaspisim.SegmentID = 1
	ack := gaspisim.NotificationID(window)
	return timedOnRank1(iters*window, func(env *cluster.Env, batch func(func())) {
		g, tg, rt := env.GASPI, env.TAGASPI, env.RT
		if _, err := g.SegmentCreate(seg, 64); err != nil {
			panic(err)
		}
		env.MPI.Barrier()
		notify := func(dst gaspisim.Rank, first, n int, val int64) {
			rt.Submit(func(tk *tasking.Task) {
				for j := first; j < first+n; j++ {
					if err := tg.Notify(tk, dst, seg, gaspisim.NotificationID(j), val, 0); err != nil {
						panic(err)
					}
				}
			})
			rt.TaskWait()
		}
		for rep := 0; rep < microReps; rep++ {
			batch(func() {
				for it := 0; it < iters; it++ {
					if env.Rank == 0 {
						notify(1, 0, window, int64(it+1))
						g.NotifyWaitSome(seg, ack, 1, gaspisim.Block)
						g.NotifyReset(seg, ack)
						continue
					}
					for j := 0; j < window; j++ {
						id := gaspisim.NotificationID(j)
						rt.Submit(func(tk *tasking.Task) { tg.NotifyIwait(tk, seg, id, nil) })
					}
					rt.TaskWait()
					notify(0, int(ack), 1, 1)
				}
			})
		}
	})
}

// collAllreduce measures a 1024-element allreduce on the task-aware
// backend over four ranks, drained after every call.
func collAllreduce() float64 {
	const rounds, n = 20, 1024
	xs := make([]float64, 0, microReps)
	cfg := cluster.Config{
		Nodes: 4, RanksPerNode: 1, CoresPerRank: 2,
		Profile:     fabric.ProfileOmniPath(),
		WithTasking: true, WithTAGASPI: true, TAGASPIPoll: time.Microsecond,
	}
	cluster.Run(cfg, func(env *cluster.Env) {
		c, err := collectives.NewTAGASPI(env.TAGASPI, env.RT, n)
		if err != nil {
			panic(err)
		}
		in, out := make([]float64, n), make([]float64, n)
		for i := range in {
			in[i] = float64(i % 7)
		}
		for rep := 0; rep < microReps; rep++ {
			t0 := time.Now()
			for k := 0; k < rounds; k++ {
				c.Allreduce(in, out, collectives.Sum)
				c.Drain()
			}
			if env.Rank == 0 {
				xs = append(xs, float64(time.Since(t0).Nanoseconds())/rounds/1e3)
			}
		}
	})
	return median(xs)
}

// obsRecord measures the Collector's span and flow recording, spread over
// four ranks as the instrumented layers emit them.
func obsRecord() float64 {
	const n = 100000
	return perOp(1, func() (time.Duration, int) {
		col := obs.NewCollector(4)
		t0 := time.Now()
		for i := 0; i < n/2; i++ {
			ts := time.Duration(i)
			col.Span(i%4, obs.TrackMain, obs.CatTask, "task", ts, ts+1, int64(i))
			col.Flow(i%4, obs.TrackFabricTx, obs.CatFabric, "flow:msg", 's', ts, int64(i+1))
		}
		return time.Since(t0), n
	})
}

// critpathAnalyze measures the critical-path walk over the trace of a
// small recorded streaming job on a 2x2 mesh.
func critpathAnalyze() float64 {
	col := obs.NewCollector(4)
	cfg := meshConfig(1, 2, true)
	cfg.Nodes, cfg.Recorder = 4, col
	p := streaming.Params{Chunks: 8, ChunkElems: 2048, BlockSize: 256}
	cluster.Run(cfg, func(env *cluster.Env) {
		streaming.RunTAGASPI(env, p)
		env.RT.TaskWait()
	})
	evs := col.Tracer.Events()
	return perOp(1, func() (time.Duration, int) {
		t0 := time.Now()
		if _, err := critpath.Analyze(evs); err != nil {
			panic(err)
		}
		return time.Since(t0), len(evs)
	})
}

// clusterSetup measures construction, final barrier and teardown of the
// gs-wide geometry with an empty rank main.
func clusterSetup() float64 {
	cfg := gsConfig("TAGASPI", 1)
	ranks := cfg.Nodes * cfg.RanksPerNode
	return perOp(1e3, func() (time.Duration, int) {
		t0 := time.Now()
		cluster.Run(cfg, func(*cluster.Env) {})
		return time.Since(t0), ranks
	})
}

// miniamrPlan measures the amr-tasks input planning (Params.Epochs).
func miniamrPlan() float64 {
	return perOp(1e6, func() (time.Duration, int) {
		t0 := time.Now()
		amrParams.Epochs(8)
		return time.Since(t0), 1
	})
}
