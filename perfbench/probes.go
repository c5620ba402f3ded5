package main

import (
	"context"
	"math"
	"time"

	recmat "repro"
	"repro/internal/core"
	"repro/internal/leaf"
	"repro/internal/sched"
)

// The probes time one layer from outside, through its public functions,
// with nothing else running. They give a layer's isolated rate, against
// which its share of a workload's time is judged.

// probeLaneName names the tracks the probes' spans go on; self times are
// taken over the workload's own tracks only.
const probeLaneName = "probes"

// probeReps is how many timed batches each probe takes; it reports their
// median.
const probeReps = 7

// timeBatches runs f in batches of about target duration each and returns
// the median time per call of f.
func timeBatches(rec *recorder, lane int32, name, layer string, target time.Duration, f func()) time.Duration {
	f() // warm up
	t0 := time.Now()
	f()
	per := time.Since(t0)
	n := 1
	if per > 0 && per < target {
		n = int(target / per)
	}
	var ds []float64
	for r := 0; r < probeReps; r++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		t1 := time.Now()
		rec.add(name, layer, lane, t0, t1, -1, "")
		ds = append(ds, float64(t1.Sub(t0).Nanoseconds())/float64(n))
	}
	return time.Duration(median(ds))
}

// probeLeaf returns the isolated flop rate of the named kernel on one
// tm×tk·tk×tn tile product over contiguous operands, as the recursive
// driver calls it (the scratch-aware form when the kernel has one).
func probeLeaf(rec *recorder, kernel string, tm, tk, tn int) float64 {
	impl, err := leaf.GetImpl(kernel)
	if err != nil || tm <= 0 || tk <= 0 || tn <= 0 {
		return math.NaN()
	}
	a := recmat.RandomSeeded(tm, tk, 11).Data
	b := recmat.RandomSeeded(tk, tn, 12).Data
	c := make([]float64, tm*tn)
	var slot any
	f := func() { impl.Kern(tm, tn, tk, a, tm, b, tk, c, tm) }
	if impl.Scratch != nil {
		s := leaf.ScratchAt(&slot)
		f = func() { impl.Scratch(s, tm, tn, tk, a, tm, b, tk, c, tm) }
	}
	d := timeBatches(rec, rec.lane(probeLaneName), "leaf.kernel", "leaf", 20*time.Millisecond, f)
	return 2 * float64(tm) * float64(tk) * float64(tn) / d.Seconds()
}

// forkDepth is the depth of the sched probe's binary fan-out: 2^forkDepth-1
// forks of empty tasks per Run.
const forkDepth = 8

// probeDim is the side of the square operand the pack and copy probes
// move: 1024² float64s, 8 MiB per array.
const probeDim = 1024

// commonProbes runs the probes every workload reports: scheduler fork-join
// cost, Prepack bandwidth and the in-process copy yardstick.
func commonProbes(rec *recorder, workers int, out map[string]metric) {
	lane := rec.lane(probeLaneName)
	pool := sched.NewPool(workers)
	defer pool.Close()

	var fan func(d int) func(*sched.Ctx)
	fan = func(d int) func(*sched.Ctx) {
		return func(c *sched.Ctx) {
			if d == 0 {
				return
			}
			c.Parallel(fan(d-1), fan(d-1))
		}
	}
	root := fan(forkDepth)
	var runErr error
	d := timeBatches(rec, lane, "sched.Pool.Run", "sched", 10*time.Millisecond, func() {
		if _, _, err := pool.Run(root); err != nil {
			runErr = err
		}
	})
	forkNS := float64(d.Nanoseconds()) / float64(int(1)<<forkDepth-1)
	if runErr != nil {
		forkNS = math.NaN()
	}
	out["sched.fork_join_ns"] = metric{forkNS, "ns", probeReps}

	src := recmat.RandomSeeded(probeDim, probeDim, 13)
	opts := core.Options{Curve: recmat.ZMorton}
	var packed float64
	var packErr error
	d = timeBatches(rec, lane, "core.Prepack", "core.convert", 20*time.Millisecond, func() {
		p, err := core.Prepack(context.Background(), pool, opts, src, false)
		if err != nil {
			packErr = err
			return
		}
		packed = float64(p.Bytes())
		p.Release()
	})
	packGBps := (8*float64(probeDim*probeDim) + packed) / d.Seconds() / 1e9
	if packErr != nil {
		packGBps = math.NaN()
	}
	out["core.convert.pack_gbps"] = metric{packGBps, "GB/s", probeReps}

	dst := make([]float64, probeDim*probeDim)
	d = timeBatches(rec, lane, "mem.copy", "mem", 20*time.Millisecond, func() { copy(dst, src.Data) })
	out["mem.copy_gbps"] = metric{2 * 8 * float64(probeDim*probeDim) / d.Seconds() / 1e9, "GB/s", probeReps}
	out["mem.copy_mib"] = metric{8 * float64(probeDim*probeDim) / (1 << 20), "MiB", 1}
}

// selfLayers are the layers whose self time a traced run reports, per
// workload operation.
var selfLayers = []string{"gen", "serve", "core", "core.convert", "core.compute", "check"}

func selfMetrics(rec *recorder, ops int, out map[string]metric) {
	self := rec.selfTimes(probeLaneName)
	for _, l := range selfLayers {
		out[l+".self_ms"] = metric{float64(self[l]) / float64(ops) / 1e6, "ms", ops}
	}
}

// algRanMetrics reports how many calls each algorithm ran, for every
// algorithm a call can resolve to.
func algRanMetrics(ran map[string]int, calls int, out map[string]metric) {
	for _, a := range recmat.AlgorithmNames() {
		if a != recmat.Auto.String() {
			out["core.alg_ran."+a] = metric{float64(ran[a]), "count", calls}
		}
	}
}

// serveOnly lists the serve layer's per-layer metrics with their units.
// The GEMM workloads never reach the serve layer and report them as 0
// from 0 samples, so every workload prints the same set.
var serveOnly = map[string]string{
	"serve.queue_ms_p99": "ms", "serve.gather_ms_mean": "ms", "serve.pack_ms_mean": "ms",
	"serve.compute_ms_mean": "ms", "serve.unpack_ms_mean": "ms", "serve.http_ms_mean": "ms",
	"serve.coalesce_rate": "ratio", "serve.wave_size_mean": "count", "serve.plan_hit_rate": "ratio",
	"serve.shed_frac": "ratio", "serve.backlog_max": "count",
}
