package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	recmat "repro"
	"repro/internal/leaf"
)

// gemmConfig is one kind of call in a GEMM workload.
type gemmConfig struct {
	name    string
	layout  recmat.Layout
	alg     recmat.Algorithm
	m, k, n int
	transA  bool
	alpha   float64
	beta    float64
}

func (c gemmConfig) flops() float64 { return 2 * float64(c.m) * float64(c.k) * float64(c.n) }

// gemmStdConfigs: the standard algorithm on Z-Morton and Hilbert at 1024³
// and 1000³ (which pads), half as C = A·B and half as C ← α·Aᵀ·B + C, so
// the transposed pack and the β-accumulate epilogue run beside the plain
// write path.
func gemmStdConfigs() []gemmConfig {
	var cs []gemmConfig
	for _, lay := range []recmat.Layout{recmat.ZMorton, recmat.Hilbert} {
		for _, sz := range []int{1024, 1000} {
			cs = append(cs,
				gemmConfig{name: fmt.Sprintf("standard/%v/%d/AB", lay, sz), layout: lay, alg: recmat.Standard,
					m: sz, k: sz, n: sz, alpha: 1},
				gemmConfig{name: fmt.Sprintf("standard/%v/%d/aAtB+C", lay, sz), layout: lay, alg: recmat.Standard,
					m: sz, k: sz, n: sz, transA: true, alpha: 0.75, beta: 1})
		}
	}
	return cs
}

// gemmFastConfigs: auto-selection on column-major at the alg-shape sweep's
// shapes, and Winograd and Strassen at 1024³ on Z-Morton (the paper's
// Figure 6 pairing).
func gemmFastConfigs() []gemmConfig {
	cs := []gemmConfig{}
	for _, s := range [][3]int{{1024, 1024, 1024}, {1296, 864, 1296}, {1536, 512, 1536}} {
		cs = append(cs, gemmConfig{name: fmt.Sprintf("auto/colmajor/%dx%dx%d", s[0], s[1], s[2]),
			layout: recmat.ColMajor, alg: recmat.Auto, m: s[0], k: s[1], n: s[2], alpha: 1})
	}
	for _, a := range []recmat.Algorithm{recmat.Winograd, recmat.Strassen} {
		cs = append(cs, gemmConfig{name: fmt.Sprintf("%v/z-morton/1024", a), layout: recmat.ZMorton, alg: a,
			m: 1024, k: 1024, n: 1024, alpha: 1})
	}
	return cs
}

// operands holds one config's inputs and its result buffer. Configs of
// equal shape share A, B and the initial C.
type operands struct {
	A, B, C0, C *recmat.Matrix
	x, y, z, cx []float64 // Freivalds vector and scratch
	c0x         []float64 // C0·x
	normA       float64   // ‖op(A)‖∞
	normB       float64   // ‖B‖∞
	normC0      float64   // ‖C0‖∞
	first       uint64    // hash of the config's first checked result
	seen        bool
}

// gemmRun is a GEMM workload in progress.
type gemmRun struct {
	cfgs    []gemmConfig
	ops     []*operands
	rng     *rand.Rand
	workers int
	res     *result
	rec     *recorder
	lane    int32

	// Per-call records of the current phase.
	calls []gemmCall
}

type gemmCall struct {
	cfg    int
	wall   time.Duration
	rep    recmat.Report
	allocs uint64
	resid  float64
	ok     bool
	repeat bool // a repeated identical call
	differ bool // its C differs bitwise from the config's first call
	lag    time.Duration
	traced bool
}

// residLimit is the largest Freivalds residual, in units of
// eps·k·‖op(A)‖∞‖B‖∞, that passes. Rounding error stays orders of
// magnitude below it for every algorithm here, and any wrong block of C
// lands orders of magnitude above it.
const residLimit = 100

func newGemmRun(cfgs []gemmConfig, seed int64, workers int, res *result) *gemmRun {
	g := &gemmRun{cfgs: cfgs, rng: rand.New(rand.NewSource(seed)), workers: workers, res: res}
	shared := map[[4]int]*operands{}
	for i, c := range cfgs {
		key := [4]int{c.m, c.k, c.n, b2i(c.transA)}
		o := shared[key]
		if o == nil {
			base := seed*1000 + int64(i)*10
			ar, ac := c.m, c.k
			if c.transA {
				ar, ac = c.k, c.m
			}
			o = &operands{
				A:  recmat.RandomSeeded(ar, ac, base+1),
				B:  recmat.RandomSeeded(c.k, c.n, base+2),
				C0: recmat.RandomSeeded(c.m, c.n, base+3),
				x:  make([]float64, c.n), y: make([]float64, c.k), z: make([]float64, c.m),
			}
			xr := rand.New(rand.NewSource(base + 4))
			for j := range o.x {
				o.x[j] = float64(2*xr.Intn(2) - 1)
			}
			o.c0x = make([]float64, c.m)
			matVec(o.c0x, o.C0, o.x, false)
			o.normA = normInf(o.A, c.transA)
			o.normB = normInf(o.B, false)
			o.normC0 = normInf(o.C0, false)
			shared[key] = o
		}
		// Each config gets its own result buffer and first-result hash.
		own := *o
		own.C = recmat.NewMatrix(c.m, c.n)
		own.cx = make([]float64, c.m)
		own.seen = false
		g.ops = append(g.ops, &own)
	}
	return g
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// setup creates an engine and runs the first call of every config,
// timing creation through the last first call. Calibration memos and the
// process's buffer pools are cleared first, so each set-up pays kernel
// calibration and pool warm-up as a fresh process would.
func (g *gemmRun) setup() (*recmat.Engine, time.Duration) {
	leaf.ResetCalibration()
	runtime.GC()
	runtime.GC() // two cycles empty every sync.Pool
	t0 := time.Now()
	eng := recmat.NewEngine(g.workers)
	reps := make([]*recmat.Report, len(g.cfgs))
	errs := make([]error, len(g.cfgs))
	for i := range g.cfgs {
		g.prepare(i)
		reps[i], errs[i] = g.call(eng, i)
	}
	d := time.Since(t0)
	for i := range g.cfgs {
		g.res.attempt(errs[i] == nil && g.check(i).ok)
	}
	return eng, d
}

// prepare resets C before a call that reads it, so every call of a
// config computes the identical product. It runs outside the timed call.
func (g *gemmRun) prepare(i int) {
	c, o := g.cfgs[i], g.ops[i]
	if c.beta != 0 {
		copy(o.C.Data, o.C0.Data)
	}
}

func (g *gemmRun) call(eng *recmat.Engine, i int) (*recmat.Report, error) {
	c, o := g.cfgs[i], g.ops[i]
	opts := &recmat.Options{Layout: c.layout, Algorithm: c.alg, Workers: g.workers}
	return eng.DGEMM(c.transA, false, c.alpha, o.A, o.B, c.beta, o.C, opts)
}

// order returns the next round of configs: every config once, in an
// order drawn from the seed, so a run of any length keeps the mix even.
func (g *gemmRun) order() []int { return g.rng.Perm(len(g.cfgs)) }

// measure runs closed-loop calls for at least d of measured call time and
// at least minCalls calls (capped at 3·d), recording each call. Checks,
// C resets and tracing run between calls, outside the timed region. With
// a recorder, every other round is traced, so traced and untraced calls
// share the same stretch of host conditions.
func (g *gemmRun) measure(eng *recmat.Engine, d time.Duration, minCalls int) {
	g.calls = g.calls[:0]
	var measured time.Duration
	ready := time.Now()
	for round := 0; measured < d || (len(g.calls) < minCalls && measured < 3*d); round++ {
		var rec *recorder
		if round%2 == 1 {
			rec = g.rec
		}
		for _, i := range g.order() {
			g.prepare(i)
			var ms0, ms1 runtime.MemStats
			if rec != nil {
				runtime.ReadMemStats(&ms0)
			}
			t0 := time.Now()
			rep, err := g.call(eng, i)
			t1 := time.Now()
			if rec != nil {
				runtime.ReadMemStats(&ms1)
			}
			c := gemmCall{cfg: i, wall: t1.Sub(t0), lag: t0.Sub(ready), allocs: ms1.Mallocs - ms0.Mallocs, traced: rec != nil}
			measured += c.wall
			tc0 := time.Now()
			if err == nil {
				c.rep = *rep
				chk := g.check(i)
				c.ok, c.resid, c.repeat, c.differ = chk.ok, chk.resid, chk.repeat, chk.differ
			}
			tc1 := time.Now()
			g.res.attempt(c.ok)
			if rec != nil {
				op := rec.add("gen.op", "gen", g.lane, ready, tc1, -1, g.cfgs[i].name)
				rec.add("check.freivalds", "check", g.lane, tc0, tc1, op, "")
				id := rec.add("core.DGEMM", "core", g.lane, t0, t1, op, g.cfgs[i].name)
				rec.phases(id,
					phaseDur{"core.convert.in", "core.convert", c.rep.ConvertIn},
					phaseDur{"core.compute", "core.compute", c.rep.Compute},
					phaseDur{"core.convert.out", "core.convert", c.rep.ConvertOut})
			}
			g.calls = append(g.calls, c)
			ready = time.Now()
		}
	}
}

type checkResult struct {
	ok, repeat, differ bool
	resid              float64
}

// check verifies the config's current C with Freivalds' test: C·x against
// α·op(A)·(B·x) + β·C0·x for a ±1 vector x, with the residual scaled by
// the standard algorithm's error bound eps·k·‖op(A)‖‖B‖. It also hashes C
// to compare repeated identical calls bit for bit.
func (g *gemmRun) check(i int) checkResult {
	c, o := g.cfgs[i], g.ops[i]
	matVec(o.y, o.B, o.x, false)    // y = B·x
	matVec(o.z, o.A, o.y, c.transA) // z = op(A)·y
	matVec(o.cx, o.C, o.x, false)
	var worst float64
	for r, v := range o.cx {
		ref := c.alpha*o.z[r] + c.beta*o.c0x[r]
		if d := math.Abs(v - ref); d > worst || math.IsNaN(d) {
			worst = d
		}
	}
	bound := math.Abs(c.alpha)*o.normA*o.normB + math.Abs(c.beta)*o.normC0
	resid := worst / (eps * float64(c.k) * bound)
	h := hashMatrix(o.C)
	cr := checkResult{ok: !math.IsNaN(resid) && resid <= residLimit, resid: resid}
	if o.seen {
		cr.repeat = true
		cr.differ = h != o.first
	} else {
		o.first, o.seen = h, true
	}
	return cr
}

const eps = 0x1p-52

// matVec sets dst = op(M)·v for column-major M.
func matVec(dst []float64, M *recmat.Matrix, v []float64, trans bool) {
	if trans {
		for j := 0; j < M.Cols; j++ {
			col := M.Data[j*M.Stride : j*M.Stride+M.Rows]
			var s float64
			for r, a := range col {
				s += a * v[r]
			}
			dst[j] = s
		}
		return
	}
	clear(dst)
	for j := 0; j < M.Cols; j++ {
		col := M.Data[j*M.Stride : j*M.Stride+M.Rows]
		vj := v[j]
		for r, a := range col {
			dst[r] += a * vj
		}
	}
}

// normInf returns the infinity norm (largest absolute row sum) of op(M).
func normInf(M *recmat.Matrix, trans bool) float64 {
	if trans {
		var best float64
		for j := 0; j < M.Cols; j++ {
			var s float64
			for _, a := range M.Data[j*M.Stride : j*M.Stride+M.Rows] {
				s += math.Abs(a)
			}
			best = math.Max(best, s)
		}
		return best
	}
	var best float64
	for _, s := range absRowSums(M) {
		best = math.Max(best, s)
	}
	return best
}

func absRowSums(M *recmat.Matrix) []float64 {
	rs := make([]float64, M.Rows)
	for j := 0; j < M.Cols; j++ {
		for r, a := range M.Data[j*M.Stride : j*M.Stride+M.Rows] {
			rs[r] += math.Abs(a)
		}
	}
	return rs
}

// hashMatrix is FNV-1a over the bits of M's entries.
func hashMatrix(M *recmat.Matrix) uint64 {
	h := uint64(14695981039346656037)
	for j := 0; j < M.Cols; j++ {
		for _, a := range M.Data[j*M.Stride : j*M.Stride+M.Rows] {
			h ^= math.Float64bits(a)
			h *= 1099511628211
		}
	}
	return h
}

// runGEMM runs a GEMM workload and returns its metrics.
func runGEMM(cfgs []gemmConfig, o runOpts, res *result) map[string]metric {
	g := newGemmRun(cfgs, o.seed, o.workers, res)
	out := map[string]metric{}

	var setups []float64
	var eng *recmat.Engine
	for r := 0; r < setupReps; r++ {
		if eng != nil {
			eng.Close()
		}
		var d time.Duration
		eng, d = g.setup()
		setups = append(setups, d.Seconds())
	}
	defer eng.Close()

	if !o.trace {
		g.measure(eng, o.seconds, minGemmCalls)
		out["setup_s"] = metric{median(setups), "s", len(setups)}
		g.endToEnd(out)
		return out
	}

	g.rec = o.rec
	g.lane = o.rec.lane("caller")
	g.measure(eng, o.seconds, 0)
	g.perLayer(out)
	return out
}

// traceOverhead compares traced with untraced calls config by config:
// the mean over configs of the ratio of their median wall times, less 1.
func (g *gemmRun) traceOverhead() float64 {
	on := make([][]float64, len(g.cfgs))
	off := make([][]float64, len(g.cfgs))
	for _, c := range g.calls {
		if c.traced {
			on[c.cfg] = append(on[c.cfg], c.wall.Seconds())
		} else {
			off[c.cfg] = append(off[c.cfg], c.wall.Seconds())
		}
	}
	var rs []float64
	for i := range g.cfgs {
		if len(on[i]) > 0 && len(off[i]) > 0 {
			rs = append(rs, median(on[i])/median(off[i]))
		}
	}
	return mean(rs) - 1
}

// endToEnd derives the end-to-end metrics of the measured calls. A failed
// call counts as an infinitely slow one. The rates use each config's
// median call time, so one round of the mix at median speed stands for
// the run and a burst of host noise moves them no more than it moves a
// median.
func (g *gemmRun) endToEnd(out map[string]metric) {
	lat := make([]float64, len(g.calls))
	per := make([][]float64, len(g.cfgs))
	for i, c := range g.calls {
		ms := float64(c.wall.Nanoseconds()) / 1e6
		if !c.ok {
			ms = math.Inf(1)
		}
		lat[i] = ms
		per[c.cfg] = append(per[c.cfg], ms)
	}
	var flops, roundMS float64
	for i, ms := range per {
		flops += g.cfgs[i].flops()
		roundMS += median(ms)
	}
	n := len(lat)
	out["gflops"] = metric{flops / roundMS / 1e6, "GFLOP/s", n}
	out["lat_p50_ms"] = metric{quantile(lat, 0.5), "ms", n}
	q, ok := tailQuantile(n, 0.99, 0.9)
	if !ok {
		q = 0.9
	}
	out["lat_tail_ms"] = metric{quantile(lat, q), "ms", n}
	out["max_ops_per_s"] = metric{float64(len(g.cfgs)) / roundMS * 1e3, "1/s", n}
}

// perLayer derives the per-layer metrics of the traced calls and runs the
// outside-in layer probes.
func (g *gemmRun) perLayer(out map[string]metric) {
	n := len(g.calls)
	var convIn, convOut, compute, total, convBytes, flops float64
	var work, arena, fallback, misses, spawns, steals, util float64
	var allocs, traced, repeats, differs float64
	var resid float64
	algRan := map[string]int{}
	type tileKey struct {
		kernel     string
		tm, tk, tn int
	}
	leafWork := map[tileKey]float64{}
	for _, c := range g.calls {
		r := c.rep
		convIn += r.ConvertIn.Seconds()
		convOut += r.ConvertOut.Seconds()
		compute += r.Compute.Seconds()
		total += r.Total().Seconds()
		convBytes += float64(r.ConvertBytes)
		flops += g.cfgs[c.cfg].flops()
		work += r.Work
		arena += float64(r.ArenaBytes)
		fallback += float64(r.AllocBytes)
		misses += float64(r.PoolMisses)
		spawns += float64(r.Spawns)
		steals += float64(r.Steals)
		util += r.Utilization
		if c.traced {
			allocs += float64(c.allocs)
			traced++
		}
		resid = math.Max(resid, c.resid)
		if c.repeat {
			repeats++
			if c.differ {
				differs++
			}
		}
		algRan[r.Alg.String()]++
		leafWork[tileKey{r.Kernel, r.TileM, r.TileK, r.TileN}] += r.Work
	}
	fn := float64(n)
	// Leaf probe at each (kernel, tile) the calls ran; the leaf's share of
	// compute is the worker time the calls' work needs at the isolated
	// rate, over the compute phase's worker time.
	var leafSec float64
	for k, w := range leafWork {
		rate := probeLeaf(g.rec, k.kernel, k.tm, k.tk, k.tn)
		leafSec += w / rate
	}
	leafShare := ratio(leafSec, compute*float64(g.workers))
	out["leaf.gflops"] = metric{ratio(work, leafSec) / 1e9, "GFLOP/s", len(leafWork)}
	out["leaf.share"] = metric{leafShare, "ratio", n}
	out["core.compute.nonleaf_share"] = metric{1 - leafShare, "ratio", n}
	out["core.convert.share"] = metric{ratio(convIn+convOut, total), "ratio", n}
	out["core.convert.in_ms"] = metric{convIn / fn * 1e3, "ms", n}
	out["core.convert.out_ms"] = metric{convOut / fn * 1e3, "ms", n}
	out["core.convert.gbps"] = metric{ratio(convBytes, convIn+convOut) / 1e9, "GB/s", n}
	out["core.compute.gflops"] = metric{ratio(flops, compute) / 1e9, "GFLOP/s", n}
	algRanMetrics(algRan, n, out)
	out["core.arena_mb"] = metric{arena / fn / (1 << 20), "MiB", n}
	out["core.arena_fallback_bytes"] = metric{fallback / fn, "bytes", n}
	out["core.bufpool_misses"] = metric{misses / fn, "count", n}
	out["core.allocs_per_call"] = metric{ratio(allocs, traced), "count", int(traced)}
	out["core.resid_growth"] = metric{resid, "ratio", n}
	out["core.repeat_mismatch"] = metric{ratio(differs, repeats), "ratio", int(repeats)}
	out["sched.spawns_per_call"] = metric{spawns / fn, "count", n}
	out["sched.steals_per_call"] = metric{steals / fn, "count", n}
	out["sched.utilization"] = metric{util / fn, "ratio", n}
	lags := make([]float64, n)
	for i, c := range g.calls {
		lags[i] = float64(c.lag.Nanoseconds()) / 1e6
	}
	out["gen.lag_ms_p99"] = metric{quantile(lags, 0.99), "ms", n}
	out["gen.sent"] = metric{fn, "count", n}
	out["trace.overhead"] = metric{g.traceOverhead(), "ratio", n}
	for name, unit := range serveOnly {
		out[name] = metric{0, unit, 0}
	}
	commonProbes(g.rec, g.workers, out)
	selfMetrics(g.rec, int(traced), out)
}
