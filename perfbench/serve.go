package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	recmat "repro"
	"repro/internal/leaf"
	"repro/internal/serve"
)

// serve-mix: an in-process daemon driven through its HTTP handler by an
// open loop of Poisson arrivals, with no sockets.
const (
	serveTenants  = 4
	weightsPerTen = 8   // named A operands per tenant
	serveSpecs    = 256 // distinct request specs; arrivals draw from them
	minDim        = 16
	maxDim        = 256

	// nominalRate is the fixed offered load the latency figures are taken
	// at, in requests per second.
	nominalRate = 400
	// sloLatency and sloFail are the limits max_ops_per_s is judged by.
	// The latency limit sits above the service time of the largest
	// (256³) requests under moderate load, which alone holds p99 near
	// 7–12 ms from half to three quarters of capacity on a 2-CPU host;
	// a limit inside that band passes or fails at random there. At 20 ms
	// the limit is crossed when queueing and shedding set in.
	sloLatency = 20 * time.Millisecond
	sloFail    = 0.01
	// maxOutstanding caps dispatched-but-unfinished requests; arrivals
	// beyond it are not sent and count as failed, so an overloaded
	// generator cannot run away with memory.
	maxOutstanding = 2048
	// shapeSeed fixes the stream the request shapes are drawn from.
	shapeSeed = 1
	// refTol is the relative c_norm error allowed against the reference.
	refTol = 1e-9
)

// ladderRates is the fixed ladder max_ops_per_s is read from: 50 req/s
// up in steps of 5%.
func ladderRates() []float64 {
	var rs []float64
	for r := 50.0; r < 20000; r *= 1.05 {
		rs = append(rs, math.Round(r))
	}
	return rs
}

// serveSpec is one distinct request: its encoded body and the c_norm a
// correct server returns for it.
type serveSpec struct {
	req   serve.Request
	body  []byte
	flops float64
	ref   float64
}

func logUniform(rng *rand.Rand, lo, hi int) int {
	return int(math.Round(float64(lo) * math.Pow(float64(hi)/float64(lo), rng.Float64())))
}

// makeSpecs builds the distinct request specs: 4 tenants, dimensions
// log-uniform in 16–256, half naming a plan-cached A (one of its tenant's
// fixed weights, on Z-Morton so the plan cache serves them) and half
// sending inline operands on column-major or Z-Morton, all with
// alg=auto.
//
// The shapes are part of the workload, as the GEMM workloads' shapes are:
// they come from a fixed stream, stratified on the log of each request's
// work at each stratum's midpoint, so the few largest requests that set
// p99 and dominate the flops are the same in every run. The seed draws
// the operands, and arrivals draws the order and timing.
func makeSpecs(seed int64) []serveSpec {
	rng := rand.New(rand.NewSource(seed))
	shape := rand.New(rand.NewSource(shapeSeed))
	dim := func(u float64) int { return int(math.Round(minDim * math.Pow(maxDim/minDim, u))) }
	// strata returns the n stratum midpoints of the sum of k uniforms,
	// in shuffled order.
	strata := func(n, k int) []float64 {
		out := make([]float64, n)
		for i, p := range shape.Perm(n) {
			out[i] = irwinHallQuantile(k, (float64(p)+0.5)/float64(n))
		}
		return out
	}
	nw := serveTenants * weightsPerTen
	named, inline := serveSpecs/2, serveSpecs-serveSpecs/2
	perWeight := named / nw
	specs := make([]serveSpec, 0, serveSpecs)
	for w, sum := range strata(nw, 2) {
		mk := splitSum(shape, sum, 2)
		aSeed := rng.Int63n(1<<30) + 1
		// Each weight's partners take the midpoint n of each of
		// perWeight equal bands, so every weight sees small and large
		// partners.
		for _, p := range shape.Perm(perWeight) {
			specs = append(specs, serveSpec{req: serve.Request{
				Tenant: fmt.Sprintf("tenant%d", w%serveTenants), AName: fmt.Sprintf("w%d", w),
				M: dim(mk[0]), K: dim(mk[1]), N: dim((float64(p) + 0.5) / float64(perWeight)),
				ASeed: aSeed, Layout: "z"}})
		}
	}
	for i, sum := range strata(inline, 3) {
		mkn := splitSum(shape, sum, 3)
		specs = append(specs, serveSpec{req: serve.Request{
			Tenant: fmt.Sprintf("tenant%d", i%serveTenants),
			M:      dim(mkn[0]), K: dim(mkn[1]), N: dim(mkn[2]), ASeed: rng.Int63n(1<<30) + 1,
			Layout: []string{"colmajor", "z"}[i%2]}})
	}
	for i := range specs {
		r := &specs[i].req
		r.Alg = "auto"
		r.BSeed = rng.Int63n(1<<30) + 1
		body, err := json.Marshal(r)
		if err != nil {
			panic(err) // a Request always encodes
		}
		specs[i].body = body
		specs[i].flops = 2 * float64(r.M) * float64(r.K) * float64(r.N)
	}
	return specs
}

// irwinHallQuantile inverts the distribution of the sum of k independent
// uniforms on [0, 1] at probability p, by bisection.
func irwinHallQuantile(k int, p float64) float64 {
	cdf := func(x float64) float64 {
		var s, fact float64 = 0, 1
		for i := 2; i <= k; i++ {
			fact *= float64(i)
		}
		binom := 1.0
		for j := 0; j <= k && float64(j) < x; j++ {
			term := binom * math.Pow(x-float64(j), float64(k))
			if j%2 == 1 {
				term = -term
			}
			s += term
			binom = binom * float64(k-j) / float64(j+1)
		}
		return s / fact
	}
	lo, hi := 0.0, float64(k)
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if cdf(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// splitSum draws k uniforms on [0, 1] conditioned on summing to sum, by
// rejection: the first k-1 are uniform and the last takes the remainder.
func splitSum(rng *rand.Rand, sum float64, k int) []float64 {
	u := make([]float64, k)
	for {
		rest := sum
		for i := 0; i < k-1; i++ {
			u[i] = rng.Float64()
			rest -= u[i]
		}
		if rest >= 0 && rest <= 1 {
			u[k-1] = rest
			rng.Shuffle(k, func(i, j int) { u[i], u[j] = u[j], u[i] })
			return u
		}
	}
}

// reference computes each spec's c_norm with the naive reference GEMM.
func reference(specs []serveSpec) {
	for i := range specs {
		r := specs[i].req
		A := recmat.RandomSeeded(r.M, r.K, r.ASeed)
		B := recmat.RandomSeeded(r.K, r.N, r.BSeed)
		C := recmat.NewMatrix(r.M, r.N)
		recmat.RefGEMM(false, false, 1, A, B, 0, C)
		specs[i].ref = norm1(C)
	}
}

// norm1 is the entrywise 1-norm of C, the digest a response's c_norm
// reports.
func norm1(C *recmat.Matrix) float64 {
	var s float64
	for j := 0; j < C.Cols; j++ {
		for _, v := range C.Data[j*C.Stride : j*C.Stride+C.Rows] {
			s += math.Abs(v)
		}
	}
	return s
}

// arrival is one scheduled request: when it is due, relative to the start
// of its phase, and which spec it sends.
type arrival struct {
	due  time.Duration
	spec int
}

// arrivals draws a Poisson arrival sequence at rate req/s over dur. The
// specs are sent in rounds, each a seeded permutation of all of them, so
// every phase offers the pool's own mix of sizes.
func arrivals(rng *rand.Rand, rate float64, dur time.Duration, nspecs int) []arrival {
	var as []arrival
	var round []int
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= dur.Seconds() {
			return as
		}
		if len(round) == 0 {
			round = rng.Perm(nspecs)
		}
		as = append(as, arrival{due: time.Duration(t * 1e9), spec: round[0]})
		round = round[1:]
	}
}

// reqRecord is what the generator saw of one request.
type reqRecord struct {
	spec       int
	due, sent  time.Duration // relative to the phase start
	done       time.Duration
	call       time.Duration // handler wall time
	backlog    int           // outstanding requests when it was sent
	ok         bool
	kind       string // error kind of a failed request
	cnorm      float64
	resp       serve.Response
	dispatched bool
	traced     bool
}

// latencyMS is the request's latency from its due time, +Inf when it
// failed.
func (r *reqRecord) latencyMS() float64 {
	if !r.ok {
		return math.Inf(1)
	}
	return float64((r.done - r.due).Nanoseconds()) / 1e6
}

type serveRun struct {
	specs   []serveSpec
	rng     *rand.Rand
	workers int
	res     *result
	rec     *recorder
}

// setup creates a server and sends every distinct spec once, timing
// creation until the last response; calibration memos and pools are
// cleared first, as for the GEMM workloads.
func (s *serveRun) setup() (*serve.Server, time.Duration, []reqRecord) {
	leaf.ResetCalibration()
	runtime.GC()
	runtime.GC()
	t0 := time.Now()
	srv := serve.New(serve.Config{Workers: s.workers})
	h := srv.Handler()
	recs := make([]reqRecord, len(s.specs))
	for i := range s.specs {
		recs[i].spec = i
		s.send(h, &recs[i], t0)
	}
	d := time.Since(t0)
	for i := range recs {
		s.check(&recs[i])
	}
	return srv, d, recs
}

// send runs one request through the handler and records its response.
func (s *serveRun) send(h http.Handler, r *reqRecord, start time.Time) {
	req := httptest.NewRequest(http.MethodPost, "/v1/gemm", bytes.NewReader(s.specs[r.spec].body))
	w := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(w, req)
	t1 := time.Now()
	r.call = t1.Sub(t0)
	r.done = t1.Sub(start)
	r.dispatched = true
	if w.Code != http.StatusOK {
		var eb serve.ErrorBody
		if json.Unmarshal(w.Body.Bytes(), &eb) == nil && eb.Error.Kind != "" {
			r.kind = eb.Error.Kind
		} else {
			r.kind = fmt.Sprintf("http %d", w.Code)
		}
		return
	}
	if err := json.Unmarshal(w.Body.Bytes(), &r.resp); err != nil {
		r.kind = "bad json"
		return
	}
	r.cnorm = r.resp.CNorm
}

// check compares a response's c_norm with the spec's reference.
func (s *serveRun) check(r *reqRecord) {
	sp := &s.specs[r.spec]
	r.ok = r.dispatched && r.kind == "" && math.Abs(r.cnorm-sp.ref) <= refTol*sp.ref
	if r.dispatched && r.kind == "" && !r.ok {
		r.kind = "wrong c_norm"
	}
}

// drive offers the arrivals to h on their schedule, each on its own
// goroutine, and returns once every request has finished.
func (s *serveRun) drive(h http.Handler, as []arrival) []reqRecord {
	recs := make([]reqRecord, len(as))
	var wg sync.WaitGroup
	var outstanding atomic.Int64
	start := time.Now()
	for i, a := range as {
		r := &recs[i]
		r.spec, r.due = a.spec, a.due
		if d := time.Until(start.Add(a.due)); d > 0 {
			time.Sleep(d)
		}
		// With a recorder every other request is traced, so traced and
		// untraced requests share the phase's host conditions. The lane
		// is taken before the send time is read, so the lane's previous
		// request has ended before this one's span begins.
		var rec *recorder
		if i%2 == 1 {
			rec = s.rec
		}
		r.traced = rec != nil
		lane := rec.takeLane()
		sent := time.Now()
		r.sent = sent.Sub(start)
		n := outstanding.Add(1)
		r.backlog = int(n)
		if n > maxOutstanding {
			rec.giveLane(lane)
			outstanding.Add(-1)
			r.kind = "not sent"
			r.done = r.sent
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.send(h, r, start)
			outstanding.Add(-1)
			t1 := time.Now()
			s.check(r)
			t2 := time.Now()
			if rec != nil {
				callStart := start.Add(r.done - r.call)
				op := rec.add("gen.request", "gen", lane, sent, t2, -1, s.specs[r.spec].req.Tenant)
				rec.add("check.cnorm", "check", lane, t1, t2, op, "")
				id := rec.add("serve.ServeHTTP", "serve", lane, callStart, start.Add(r.done), op, "")
				if tm := r.resp.Timing; tm != nil {
					rec.phases(id,
						phaseDur{"serve.queue", "serve", time.Duration(tm.QueueNS)},
						phaseDur{"serve.gather", "serve", time.Duration(tm.GatherNS)},
						phaseDur{"core.convert.pack", "core.convert", time.Duration(tm.PackNS)},
						phaseDur{"core.compute", "core.compute", time.Duration(tm.ComputeNS)},
						phaseDur{"core.convert.unpack", "core.convert", time.Duration(tm.UnpackNS)})
				}
			}
			rec.giveLane(lane)
		}()
	}
	wg.Wait()
	return recs
}

// count adds a phase's requests to the run's attempted and failed totals.
// Only wrong results and errors other than overload rejections fail an
// op; on the ladder, sheds and deadline misses are how overload shows.
func (s *serveRun) count(recs []reqRecord, overloadOK bool) {
	for i := range recs {
		ok := recs[i].ok
		if overloadOK {
			switch recs[i].kind {
			case serve.KindShed, serve.KindDeadline, serve.KindQuota, "not sent":
				ok = true
			}
		}
		s.res.attempt(ok)
	}
}

// meetsSLO reports whether a phase met the latency limit at its tail,
// failed at most sloFail of its requests, and kept its backlog from
// growing (the last third's mean backlog within twice the first third's,
// plus slack for the concurrency the server admits).
func meetsSLO(recs []reqRecord) bool {
	n := len(recs)
	if n == 0 {
		return false
	}
	lat := make([]float64, n)
	failed := 0
	for i := range recs {
		lat[i] = recs[i].latencyMS()
		if !recs[i].ok {
			failed++
		}
	}
	q, ok := tailQuantile(n, 0.99)
	if !ok {
		return false
	}
	if quantile(lat, q) > float64(sloLatency.Milliseconds()) || float64(failed) > sloFail*float64(n) {
		return false
	}
	third := n / 3
	var first, last float64
	for i := 0; i < third; i++ {
		first += float64(recs[i].backlog)
		last += float64(recs[n-1-i].backlog)
	}
	return last <= 2*first+4*float64(third)
}

// ladderProbe is the offered load of one ladder step: enough time for
// 1100 requests, so p99 has ten beyond it, and at least minProbe.
func ladderProbe(rate float64) time.Duration {
	d := time.Duration(1100 / rate * 1e9)
	if d < minProbe {
		d = minProbe
	}
	return d
}

const (
	minProbe = time.Second
	// capacityProbe is how long the closed-loop capacity estimate runs.
	// The ladder sweep covers loFrac to hiFrac of that capacity, where
	// the SLO limit has fallen on every host state seen so far.
	capacityProbe = time.Second
	loFrac        = 0.4
	hiFrac        = 0.75
)

// capacity measures closed-loop throughput: 2·workers senders, each
// sending its next request as soon as the last returns, for d. It only
// places the ladder sweep; its responses are checked like any other.
func (s *serveRun) capacity(h http.Handler, d time.Duration) float64 {
	var wg sync.WaitGroup
	recs := make([][]reqRecord, 2*s.workers)
	start := time.Now()
	stop := start.Add(d)
	for c := range recs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; time.Now().Before(stop); i += len(recs) {
				r := reqRecord{spec: i % len(s.specs)}
				s.send(h, &r, start)
				s.check(&r)
				recs[c] = append(recs[c], r)
			}
		}(c)
	}
	wg.Wait()
	el := time.Since(start).Seconds()
	n := 0
	for _, rs := range recs {
		s.count(rs, true)
		n += len(rs)
	}
	return float64(n) / el
}

// maxRate finds the highest ladder rate that meets the SLO. It offers
// every rung between loFrac and hiFrac of the closed-loop capacity once,
// extending the sweep down or up while its ends all fail or all pass,
// and then takes the threshold rung that best separates passing rungs
// below from failing rungs above (the median of the best when several
// tie). One rung spoiled by a passing stall, or lucky in a burst-free
// second, then moves the result by at most one rung. The sweep stops
// early when budget runs out.
func (s *serveRun) maxRate(h http.Handler, budget time.Duration) (float64, int) {
	rates := ladderRates()
	deadline := time.Now().Add(budget)
	x := s.capacity(h, capacityProbe)
	lo, hi := 0, 0
	for lo+1 < len(rates) && rates[lo+1] <= loFrac*x {
		lo++
	}
	for hi+1 < len(rates) && rates[hi+1] <= hiFrac*x {
		hi++
	}
	pass := map[int]bool{}
	try := func(i int) {
		runtime.GC()
		recs := s.drive(h, arrivals(s.rng, rates[i], ladderProbe(rates[i]), len(s.specs)))
		s.count(recs, true)
		pass[i] = meetsSLO(recs)
	}
	for i := lo; i <= hi && time.Now().Before(deadline); i++ {
		try(i)
	}
	for lo > 0 && !pass[lo] && !pass[lo+1] && time.Now().Before(deadline) {
		lo = max(lo-4, 0)
		try(lo)
	}
	for hi+1 < len(rates) && pass[hi] && time.Now().Before(deadline) {
		hi++
		try(hi)
	}
	var probed []int
	for i := range pass {
		probed = append(probed, i)
	}
	t := sloThreshold(probed, pass)
	fmt.Fprintf(os.Stderr, "ladder: closed-loop capacity %.0f req/s;", x)
	for _, i := range probed {
		fmt.Fprintf(os.Stderr, " %.0f:%v", rates[i], pass[i])
	}
	fmt.Fprintln(os.Stderr)
	if t < 0 {
		return 0, len(probed)
	}
	return rates[t], len(probed)
}

// sloThreshold returns the rung t that minimizes the number of probed
// rungs at or below t that failed plus those above t that passed, or -1
// when the best separation has every probed rung failing. Among equally
// good thresholds it returns the median one.
func sloThreshold(probed []int, pass map[int]bool) int {
	sort.Ints(probed)
	best := -1
	var ties []int
	for k := -1; k < len(probed); k++ {
		cost := 0
		for j, i := range probed {
			if (j <= k) != pass[i] {
				cost++
			}
		}
		if best < 0 || cost < best {
			best, ties = cost, ties[:0]
		}
		if cost == best {
			ties = append(ties, k)
		}
	}
	k := ties[(len(ties)-1)/2]
	if k < 0 {
		return -1
	}
	return probed[k]
}

func runServe(o runOpts, res *result) map[string]metric {
	specs := makeSpecs(o.seed)
	reference(specs)
	s := &serveRun{specs: specs, rng: rand.New(rand.NewSource(o.seed + 1)), workers: o.workers, res: res}
	out := map[string]metric{}

	var setups []float64
	var srv *serve.Server
	for r := 0; r < setupReps; r++ {
		if srv != nil {
			if err := srv.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: closing set-up server: %v\n", err)
			}
		}
		var d time.Duration
		var recs []reqRecord
		srv, d, recs = s.setup()
		s.count(recs, false)
		setups = append(setups, d.Seconds())
	}
	defer srv.Close()
	h := srv.Handler()

	if !o.trace {
		nominal := o.seconds * 2 / 5
		runtime.GC()
		recs := s.drive(h, arrivals(s.rng, nominalRate, nominal, len(specs)))
		s.count(recs, false)
		// Peak memory through set-up and the nominal phase; the ladder's
		// deliberate overload is left out.
		out["mem_peak_mb"] = metric{peakRSSMiB(), "MiB", 1}
		rate, probes := s.maxRate(h, o.seconds-nominal)
		out["setup_s"] = metric{median(setups), "s", len(setups)}
		serveEndToEnd(specs, recs, out)
		out["max_ops_per_s"] = metric{rate, "1/s", probes}
		return out
	}

	s.rec = o.rec
	reg := srv.Metrics()
	hits0, miss0 := reg.Counter("plan_cache_hits").Value(), reg.Counter("plan_cache_misses").Value()
	st0 := srv.Engine().SchedulerStats()
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	traced := s.drive(h, arrivals(s.rng, nominalRate, o.seconds, len(specs)))
	runtime.ReadMemStats(&ms1)
	s.count(traced, false)
	st1 := srv.Engine().SchedulerStats()
	hits := float64(reg.Counter("plan_cache_hits").Value() - hits0)
	misses := float64(reg.Counter("plan_cache_misses").Value() - miss0)

	n := len(traced)
	fn := float64(n)
	var on, off []float64
	for i := range traced {
		if traced[i].traced {
			on = append(on, traced[i].latencyMS())
		} else {
			off = append(off, traced[i].latencyMS())
		}
	}
	out["trace.overhead"] = metric{median(on)/median(off) - 1, "ratio", n}

	var queue, lags []float64
	var gather, pack, compute, unpack, handler, flops, soloFlops, soloCompute float64
	var coalesced, waves, shed, backlog, okN, repeats, differs, resid float64
	algRan := map[string]int{}
	first := map[int]float64{}
	for i := range traced {
		r := &traced[i]
		lags = append(lags, float64((r.sent-r.due).Nanoseconds())/1e6)
		backlog = math.Max(backlog, float64(r.backlog))
		if r.kind == serve.KindShed {
			shed++
		}
		if !r.ok {
			continue
		}
		okN++
		tm := r.resp.Timing
		if tm == nil {
			tm = &serve.Timing{}
		}
		queue = append(queue, float64(tm.QueueNS)/1e6)
		gather += float64(tm.GatherNS)
		pack += float64(tm.PackNS)
		compute += float64(tm.ComputeNS)
		unpack += float64(tm.UnpackNS)
		phases := tm.QueueNS + tm.GatherNS + tm.PackNS + tm.ComputeNS + tm.UnpackNS
		handler += float64(r.call.Nanoseconds() - phases)
		sp := &specs[r.spec]
		flops += sp.flops
		if !r.resp.Coalesced {
			soloFlops += sp.flops
			soloCompute += float64(tm.ComputeNS)
		}
		if r.resp.Coalesced {
			coalesced++
		}
		waves += float64(max(r.resp.BatchSize, 1))
		algRan[r.resp.AlgRan]++
		resid = math.Max(resid, math.Abs(r.cnorm-sp.ref)/sp.ref/(eps*float64(sp.req.K)))
		if c, seen := first[r.spec]; seen {
			repeats++
			if math.Float64bits(c) != math.Float64bits(r.cnorm) {
				differs++
			}
		} else {
			first[r.spec] = r.cnorm
		}
	}
	// Leaf rate at the tiles of a sample of specs, as the engine chose
	// them for a direct call; the leaf's share is the leaf time the
	// served flops need over the requests' compute time.
	rate := s.leafRate(srv)
	leafShare := ratio(flops/rate, compute/1e9)

	out["leaf.gflops"] = metric{rate / 1e9, "GFLOP/s", n}
	out["leaf.share"] = metric{leafShare, "ratio", n}
	out["core.compute.nonleaf_share"] = metric{1 - leafShare, "ratio", n}
	out["core.convert.share"] = metric{ratio(pack+unpack, pack+compute+unpack), "ratio", n}
	out["core.convert.in_ms"] = metric{ratio(pack, okN) / 1e6, "ms", n}
	out["core.convert.out_ms"] = metric{ratio(unpack, okN) / 1e6, "ms", n}
	out["core.convert.gbps"] = metric{0, "GB/s", 0}
	out["core.compute.gflops"] = metric{ratio(soloFlops, soloCompute), "GFLOP/s", n}
	algRanMetrics(algRan, n, out)
	out["core.arena_mb"] = metric{0, "MiB", 0}
	out["core.arena_fallback_bytes"] = metric{0, "bytes", 0}
	out["core.bufpool_misses"] = metric{0, "count", 0}
	out["core.allocs_per_call"] = metric{float64(ms1.Mallocs-ms0.Mallocs) / fn, "count", n}
	out["core.resid_growth"] = metric{resid, "ratio", n}
	out["core.repeat_mismatch"] = metric{ratio(differs, repeats), "ratio", int(repeats)}
	out["sched.spawns_per_call"] = metric{float64(st1.Spawns-st0.Spawns) / fn, "count", n}
	out["sched.steals_per_call"] = metric{float64(st1.Steals-st0.Steals) / fn, "count", n}
	out["sched.utilization"] = metric{0, "ratio", 0}
	out["serve.queue_ms_p99"] = metric{quantile(queue, 0.99), "ms", len(queue)}
	out["serve.gather_ms_mean"] = metric{ratio(gather, okN) / 1e6, "ms", n}
	out["serve.pack_ms_mean"] = metric{ratio(pack, okN) / 1e6, "ms", n}
	out["serve.compute_ms_mean"] = metric{ratio(compute, okN) / 1e6, "ms", n}
	out["serve.unpack_ms_mean"] = metric{ratio(unpack, okN) / 1e6, "ms", n}
	out["serve.http_ms_mean"] = metric{ratio(handler, okN) / 1e6, "ms", n}
	out["serve.coalesce_rate"] = metric{ratio(coalesced, okN), "ratio", n}
	out["serve.wave_size_mean"] = metric{ratio(waves, okN), "count", n}
	out["serve.plan_hit_rate"] = metric{ratio(hits, hits+misses), "ratio", int(hits + misses)}
	out["serve.shed_frac"] = metric{shed / fn, "ratio", n}
	out["serve.backlog_max"] = metric{backlog, "count", n}
	out["gen.lag_ms_p99"] = metric{quantile(lags, 0.99), "ms", n}
	out["gen.sent"] = metric{fn, "count", n}
	commonProbes(o.rec, o.workers, out)
	selfMetrics(o.rec, len(on), out)
	return out
}

// leafRate probes the leaf kernel at the tiles the engine picks for a
// sample of the specs (a direct call of each on the server's engine) and
// returns their flop-weighted harmonic mean rate.
func (s *serveRun) leafRate(srv *serve.Server) float64 {
	type key struct {
		kernel     string
		tm, tk, tn int
	}
	rates := map[key]float64{}
	var flops, sec float64
	for i := 0; i < len(s.specs); i += len(s.specs) / 8 {
		r := s.specs[i].req
		lay, err := recmat.ParseLayout(r.Layout)
		if err != nil {
			continue
		}
		A := recmat.RandomSeeded(r.M, r.K, r.ASeed)
		B := recmat.RandomSeeded(r.K, r.N, r.BSeed)
		C := recmat.NewMatrix(r.M, r.N)
		rep, err := srv.Engine().DGEMM(false, false, 1, A, B, 0, C, &recmat.Options{Layout: lay, Algorithm: recmat.Auto})
		s.res.attempt(err == nil && math.Abs(norm1(C)-s.specs[i].ref) <= refTol*s.specs[i].ref)
		if err != nil {
			continue
		}
		k := key{rep.Kernel, rep.TileM, rep.TileK, rep.TileN}
		if _, ok := rates[k]; !ok {
			rates[k] = probeLeaf(s.rec, k.kernel, k.tm, k.tk, k.tn)
		}
		flops += s.specs[i].flops
		sec += s.specs[i].flops / rates[k]
	}
	return ratio(flops, sec)
}

// serveEndToEnd derives serve-mix's end-to-end metrics from the nominal
// phase. As for the GEMM workloads, gflops takes each spec's median
// handler time, with a failed request counting as infinitely slow.
func serveEndToEnd(specs []serveSpec, recs []reqRecord, out map[string]metric) {
	n := len(recs)
	lat := make([]float64, n)
	per := map[int][]float64{}
	for i := range recs {
		r := &recs[i]
		lat[i] = r.latencyMS()
		sec := r.call.Seconds()
		if !r.ok {
			sec = math.Inf(1)
		}
		per[r.spec] = append(per[r.spec], sec)
	}
	var flops, sec float64
	for spec, ts := range per {
		flops += specs[spec].flops
		sec += median(ts)
	}
	out["gflops"] = metric{ratio(flops, sec) / 1e9, "GFLOP/s", n}
	out["lat_p50_ms"] = metric{quantile(lat, 0.5), "ms", n}
	q, ok := tailQuantile(n, 0.99, 0.9)
	if !ok {
		q = 0.9
	}
	out["lat_tail_ms"] = metric{quantile(lat, q), "ms", n}
}
