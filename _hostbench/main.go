// Command hostbench is the repository's host-performance benchmark. It runs
// one workload of simulated jobs through cluster.Run and the public app
// entry points, checks every job's outputs against references computed
// apart from the run, and prints one JSON result line.
//
// With -trace 0 it reports the end-to-end metrics (wall_s, updates_per_s,
// setup_s, peak_rss_mb); with -trace 1 it reports the per-layer metrics:
// deterministic work counts, Go runtime deltas, per-layer micro-benchmarks
// and the CPU split of a profiled run. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"repro/internal/cluster"
)

// procs is the benchmark's GOMAXPROCS. The simulator's host work is
// serial through virtual-clock hand-offs, so a second P mostly adds
// cross-thread wake-ups; on a two-core host shared with other work those
// made runs 25-75% slower and several times noisier than one P (see
// README.md).
const procs = 1

// procStart is taken during package initialisation, before main runs, so
// setup_s covers the process's own start-up as well.
var procStart = time.Now()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) put(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: gs-wide, amr-tasks or obs-mesh")
	seed := flag.Int64("seed", 1, "seed passed to cluster.Config.Seed and the workload's inputs")
	seconds := flag.Float64("seconds", 20, "measured host seconds; whole rounds are always run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from counts, micro-benchmarks and a profiled run")
	out := flag.String("out", filepath.Join(".bench_build", "hostbench-out"), "directory for the profile and span files of -trace 1")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "hostbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(procs)

	var spans *spanLog
	if *trace == 1 {
		spans = &spanLog{}
	}
	sid := spans.begin("plan", 0)
	w, err := newWorkload(*name, *seed)
	spans.end(sid)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(2)
	}
	sid = spans.begin("setup-run", 0)
	cluster.Run(w.largest, func(*cluster.Env) {})
	spans.end(sid)
	setup := time.Since(procStart)
	sid = spans.begin("reference", 0)
	w.prepare()
	spans.end(sid)

	res := result{Correct: true, Metrics: metrics{}}
	if *trace == 0 {
		rounds := runFor(w, *seconds, nil, false, &res)
		walls := wallsOf(rounds)
		med := median(walls)
		res.Metrics.put("wall_s", med, "s")
		res.Metrics.put("updates_per_s", w.updates/med, "updates/s")
		res.Metrics.put("setup_s", setup.Seconds(), "s")
		rss, err := peakRSSMB()
		if err != nil {
			fmt.Fprintln(os.Stderr, "hostbench:", err)
			os.Exit(1)
		}
		res.Metrics.put("peak_rss_mb", rss, "MB")
		fmt.Fprintf(os.Stderr, "hostbench: %s seed=%d rounds=%d median wall %.4fs\n", w.name, *seed, len(rounds), med)
		for i, j := range w.jobs {
			var js []float64
			for _, r := range rounds {
				js = append(js, r.jobs[i].Seconds())
			}
			fmt.Fprintf(os.Stderr, "hostbench:   %-18s median %.4fs\n", j.name, median(js))
		}
	} else {
		if err := traced(w, *seconds, *out, spans, &res); err != nil {
			fmt.Fprintln(os.Stderr, "hostbench:", err)
			os.Exit(1)
		}
	}

	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// round is one pass over a workload's jobs.
type round struct {
	wall   time.Duration   // host time inside cluster.Run, summed over jobs
	jobs   []time.Duration // the same, per job
	counts counts
	mem    memDelta
}

// runRound runs every job of w once, timing only the cluster.Run calls,
// and checks each job's outputs: every job counts as attempted in res, and
// a failed check clears res.Correct.
func runRound(w *workload, spans *spanLog, withMem bool, res *result) round {
	var r round
	rid := spans.begin("round", 0)
	defer spans.end(rid)
	for _, j := range w.jobs {
		j.reset()
		cfg := j.cfg()
		// Each job starts from a collected heap, so garbage left by the
		// previous job and its check is not charged to this one.
		runtime.GC()
		var before runtime.MemStats
		if withMem {
			before = readMem()
		}
		sid := spans.begin("job "+j.name, rid)
		t0 := time.Now()
		out := cluster.Run(cfg, j.main)
		d := time.Since(t0)
		r.wall += d
		r.jobs = append(r.jobs, d)
		spans.end(sid)
		if withMem {
			d := deltaOf(before, readMem())
			r.mem.allocBytes += d.allocBytes
			r.mem.mallocs += d.mallocs
			r.mem.gcs += d.gcs
		}
		r.counts.add(out, cfg.Recorder)
		sid = spans.begin("check "+j.name, rid)
		err := j.check(out)
		spans.end(sid)
		res.Attempted++
		if err != nil {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "hostbench: %s: %v\n", j.name, err)
		}
	}
	return r
}

// runFor runs whole rounds until their cluster.Run time reaches seconds.
func runFor(w *workload, seconds float64, spans *spanLog, withMem bool, res *result) []round {
	var rounds []round
	var total time.Duration
	for total.Seconds() < seconds {
		r := runRound(w, spans, withMem, res)
		rounds = append(rounds, r)
		total += r.wall
	}
	return rounds
}

// traced produces the per-layer metrics: half the time in untraced rounds
// (counts, Go runtime deltas, the overhead baseline), then as many rounds
// under a CPU profile with spans, then the micro-benchmarks.
func traced(w *workload, seconds float64, dir string, spans *spanLog, res *result) error {
	m := res.Metrics
	plain := runFor(w, seconds/2, nil, true, res)
	plain[0].counts.metrics(m)
	var alloc, mallocs, gcs []float64
	for _, r := range plain {
		alloc = append(alloc, r.mem.allocBytes/(1<<20))
		mallocs = append(mallocs, r.mem.mallocs)
		gcs = append(gcs, r.mem.gcs)
	}
	m.put("go.alloc_mb", median(alloc), "MB")
	m.put("go.mallocs", median(mallocs), "count")
	m.put("go.gc_cycles", median(gcs), "count")

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("start CPU profile: %w", err)
	}
	profiled := make([]round, 0, len(plain))
	for range plain {
		profiled = append(profiled, runRound(w, spans, false, res))
	}
	pprof.StopCPUProfile()
	m.put("profile.overhead_s", median(wallsOf(profiled))-median(wallsOf(plain)), "s")
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return err
	}
	for _, b := range cpuBuckets {
		m.put("cpu."+b, shares[b], "%")
	}

	for _, run := range microBenchmarks {
		run(m)
	}

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("output directory: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, w.name+".cpu.pprof"), prof.Bytes(), 0o644); err != nil {
		return fmt.Errorf("write profile: %w", err)
	}
	return spans.writeFile(filepath.Join(dir, w.name+".spans.json"))
}

func wallsOf(rounds []round) []float64 {
	out := make([]float64, len(rounds))
	for i, r := range rounds {
		out[i] = r.wall.Seconds()
	}
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB is the process's peak resident set size (getrusage ru_maxrss,
// which Linux reports in KiB).
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil
}
