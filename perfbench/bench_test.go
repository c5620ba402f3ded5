package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"

	recmat "repro"
	"repro/internal/obs"
	"repro/internal/serve"
)

// smallConfigs stand in for the 1024³ configs where a test needs real
// engine calls but not their cost.
func smallConfigs() []gemmConfig {
	return []gemmConfig{
		{name: "std-z", layout: recmat.ZMorton, alg: recmat.Standard, m: 64, k: 48, n: 40, alpha: 1},
		{name: "std-h-acc", layout: recmat.Hilbert, alg: recmat.Standard, m: 40, k: 64, n: 48, transA: true, alpha: 0.75, beta: 1},
		{name: "auto-c", layout: recmat.ColMajor, alg: recmat.Auto, m: 96, k: 96, n: 96, alpha: 1},
	}
}

func TestSameSeedSameOpSequence(t *testing.T) {
	seq := func(seed int64) ([]int, []uint64) {
		g := newGemmRun(smallConfigs(), seed, 1, &result{})
		var order []int
		for r := 0; r < 20; r++ {
			order = append(order, g.order()...)
		}
		var hs []uint64
		for _, o := range g.ops {
			hs = append(hs, hashMatrix(o.A), hashMatrix(o.B), hashMatrix(o.C0))
		}
		return order, hs
	}
	o1, h1 := seq(7)
	o2, h2 := seq(7)
	if !reflect.DeepEqual(o1, o2) || !reflect.DeepEqual(h1, h2) {
		t.Fatal("same seed gave different GEMM calls or operands")
	}
	o3, h3 := seq(8)
	if reflect.DeepEqual(o1, o3) || reflect.DeepEqual(h1, h3) {
		t.Fatal("different seeds gave identical GEMM calls and operands")
	}
}

func TestSameSeedSameArrivals(t *testing.T) {
	draw := func(seed int64) ([][]byte, []arrival) {
		specs := makeSpecs(seed)
		var bodies [][]byte
		for _, s := range specs {
			bodies = append(bodies, s.body)
		}
		return bodies, arrivals(rand.New(rand.NewSource(seed+1)), nominalRate, 3*time.Second, len(specs))
	}
	b1, a1 := draw(3)
	b2, a2 := draw(3)
	if !reflect.DeepEqual(b1, b2) || !reflect.DeepEqual(a1, a2) {
		t.Fatal("same seed gave different requests or arrivals")
	}
	b3, a3 := draw(4)
	if reflect.DeepEqual(b1, b3) || reflect.DeepEqual(a1, a3) {
		t.Fatal("different seeds gave identical requests and arrivals")
	}
	if n := len(a1); n < 2*nominalRate || n > 4*nominalRate {
		t.Fatalf("%d arrivals in 3 s at %d req/s", n, nominalRate)
	}
}

// TestSpecMix checks the request mix the issue fixes: 4 tenants,
// dimensions in 16–256, half with a named A on Z-Morton, and every spec
// sent equally often.
func TestSpecMix(t *testing.T) {
	specs := makeSpecs(11)
	named, tenants := 0, map[string]bool{}
	for _, s := range specs {
		r := s.req
		for _, d := range []int{r.M, r.K, r.N} {
			if d < minDim || d > maxDim {
				t.Fatalf("dimension %d outside [%d, %d]", d, minDim, maxDim)
			}
		}
		if r.AName != "" {
			named++
			if r.Layout != "z" {
				t.Fatalf("named A on layout %q", r.Layout)
			}
		}
		if r.Alg != "auto" {
			t.Fatalf("alg %q", r.Alg)
		}
		tenants[r.Tenant] = true
	}
	if named != len(specs)/2 || len(tenants) != serveTenants {
		t.Fatalf("%d of %d specs named, %d tenants", named, len(specs), len(tenants))
	}
	as := arrivals(rand.New(rand.NewSource(1)), 1000, 2*time.Second, len(specs))
	uses := make([]int, len(specs))
	for _, a := range as[:len(as)/len(specs)*len(specs)] {
		uses[a.spec]++
	}
	sort.Ints(uses)
	if uses[0] != uses[len(uses)-1] {
		t.Fatalf("specs sent unevenly: %d to %d times", uses[0], uses[len(uses)-1])
	}
}

func TestIrwinHallAndSplit(t *testing.T) {
	if q := irwinHallQuantile(3, 0.5); math.Abs(q-1.5) > 1e-9 {
		t.Fatalf("median of 3 uniforms = %v", q)
	}
	if q := irwinHallQuantile(2, 0.125); math.Abs(q-0.5) > 1e-9 {
		t.Fatalf("0.125 quantile of 2 uniforms = %v", q)
	}
	rng := rand.New(rand.NewSource(1))
	for _, s := range []float64{0.05, 1.2, 2.9} {
		u := splitSum(rng, s, 3)
		if math.Abs(u[0]+u[1]+u[2]-s) > 1e-12 {
			t.Fatalf("split of %v sums to %v", s, u[0]+u[1]+u[2])
		}
		for _, x := range u {
			if x < 0 || x > 1 {
				t.Fatalf("split of %v has part %v", s, x)
			}
		}
	}
}

// TestPercentileRule: a reported tail percentile leaves at least ten
// samples beyond it, and none is reported when too few samples exist.
func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{{99, 0, false}, {100, 0.9, true}, {150, 0.9, true}, {999, 0.9, true}, {1000, 0.99, true}, {5000, 0.99, true}} {
		q, ok := tailQuantile(tc.n, 0.99, 0.9)
		if ok != tc.ok || q != tc.want {
			t.Fatalf("n=%d: got %v %v, want %v %v", tc.n, q, ok, tc.want, tc.ok)
		}
		if !ok {
			continue
		}
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		rand.New(rand.NewSource(int64(tc.n))).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		v := quantile(xs, q)
		above := 0
		for _, x := range xs {
			if x > v {
				above++
			}
		}
		if above < minBeyond {
			t.Fatalf("n=%d: p%v leaves %d samples beyond it", tc.n, q*100, above)
		}
	}
}

func TestLatencyTimedFromDue(t *testing.T) {
	r := reqRecord{due: 2 * time.Millisecond, sent: 7 * time.Millisecond, done: 9 * time.Millisecond, ok: true}
	if got := r.latencyMS(); got != 7 {
		t.Fatalf("latency %v ms, want 7 (from due, not from send)", got)
	}

	// A generator that falls behind its schedule still times each
	// request from when it was due: every arrival here is due at once.
	specs := []serveSpec{{body: []byte(`{}`), ref: 5}}
	s := &serveRun{specs: specs, workers: 1, res: &result{}}
	slow := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		time.Sleep(10 * time.Millisecond)
		json.NewEncoder(w).Encode(serve.Response{CNorm: 5})
	})
	recs := s.drive(slow, []arrival{{0, 0}, {0, 0}, {0, 0}})
	for i, r := range recs {
		if !r.ok {
			t.Fatalf("request %d failed: %s", i, r.kind)
		}
		if r.latencyMS() < 10 || r.latencyMS() < float64((r.done-r.sent).Nanoseconds())/1e6 {
			t.Fatalf("request %d: latency %v ms, sent %v after due, done %v", i, r.latencyMS(), r.sent, r.done)
		}
	}
}

func TestFailuresCountAsMisses(t *testing.T) {
	if !math.IsInf((&reqRecord{done: time.Millisecond}).latencyMS(), 1) {
		t.Fatal("a failed request must miss every latency limit")
	}
	specs := []serveSpec{{body: []byte(`{}`), ref: 5}}
	s := &serveRun{specs: specs, workers: 1, res: &result{}}
	reply := func(code int, body any) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.WriteHeader(code)
			json.NewEncoder(w).Encode(body)
		})
	}
	shed := s.drive(reply(http.StatusTooManyRequests, serve.ErrorBody{Error: serve.ErrorInfo{Kind: serve.KindShed}}), []arrival{{0, 0}})
	wrong := s.drive(reply(http.StatusOK, serve.Response{CNorm: 6}), []arrival{{0, 0}})
	if shed[0].ok || shed[0].kind != serve.KindShed || wrong[0].ok || wrong[0].kind != "wrong c_norm" {
		t.Fatalf("shed %+v, wrong %+v", shed[0].kind, wrong[0].kind)
	}
	s.count(shed, false)
	s.count(wrong, true)
	if s.res.attempted != 2 || s.res.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 2 and 2", s.res.attempted, s.res.failed)
	}
	// On the ladder a shed is how overload shows, not a failed op; a
	// wrong result still fails.
	s.count(shed, true)
	if s.res.failed != 2 {
		t.Fatal("a ladder shed counted as a failed op")
	}

	// Twelve failures in 1100 requests put p99 at +Inf.
	recs := make([]reqRecord, 1100)
	for i := range recs {
		recs[i] = reqRecord{ok: i >= 12, done: time.Millisecond}
	}
	if meetsSLO(recs) {
		t.Fatal("1.1% failures met the SLO")
	}
	for i := range recs {
		recs[i].ok = true
	}
	if !meetsSLO(recs) {
		t.Fatal("1 ms requests failed the SLO")
	}

	g := &gemmRun{cfgs: smallConfigs()[:1]}
	for i := 0; i < 100; i++ {
		g.calls = append(g.calls, gemmCall{wall: time.Millisecond, ok: i >= 11})
	}
	out := map[string]metric{}
	g.endToEnd(out)
	if !math.IsInf(out["lat_tail_ms"].Value, 1) {
		t.Fatalf("11%% failed calls gave p90 %v", out["lat_tail_ms"].Value)
	}
}

func TestSLOThreshold(t *testing.T) {
	for _, tc := range []struct {
		bits string
		want int
	}{
		{"11110000", 3},
		{"11101100", 5}, // one spoiled rung does not end the climb
		{"11011000", 4},
		{"00000000", -1},
		{"11111111", 7},
	} {
		pass := map[int]bool{}
		var probed []int
		for i, b := range tc.bits {
			probed = append(probed, 10+i)
			pass[10+i] = b == '1'
		}
		want := tc.want
		if want >= 0 {
			want += 10
		}
		if got := sloThreshold(probed, pass); got != want {
			t.Fatalf("%s: threshold %d, want %d", tc.bits, got, want)
		}
	}
}

func TestFreivaldsCheck(t *testing.T) {
	g := newGemmRun(smallConfigs(), 5, 2, &result{})
	eng, _ := g.setup()
	defer eng.Close()
	if g.res.failed != 0 {
		t.Fatalf("%d of %d correct calls failed the check", g.res.failed, g.res.attempted)
	}
	for i := range g.cfgs {
		g.prepare(i)
		if _, err := g.call(eng, i); err != nil {
			t.Fatal(err)
		}
		if c := g.check(i); !c.ok || !c.repeat || c.differ {
			t.Fatalf("%s: repeated call checked as %+v", g.cfgs[i].name, c)
		}
		g.ops[i].C.Data[7] += 1e-6
		if c := g.check(i); c.ok || !c.differ {
			t.Fatalf("%s: corrupted C checked as %+v", g.cfgs[i].name, c)
		}
	}
}

func TestTraceSelfTimesAndExport(t *testing.T) {
	r := newRecorder()
	lane := r.lane("caller")
	at := func(ms int) time.Time { return r.epoch.Add(time.Duration(ms) * time.Millisecond) }
	p := r.add("gen.op", "gen", lane, at(0), at(10), -1, "")
	r.add("check.a", "check", lane, at(1), at(3), p, "")
	r.add("check.b", "check", lane, at(3), at(5), p, "")
	d := r.add("core.DGEMM", "core", lane, at(6), at(10), p, "")
	r.phases(d, phaseDur{"core.compute", "core.compute", 3 * time.Millisecond},
		phaseDur{"core.convert.out", "core.convert", 5 * time.Millisecond})
	probe := r.lane(probeLaneName)
	r.add("leaf.kernel", "leaf", probe, at(0), at(4), -1, "")

	self := r.selfTimes(probeLaneName)
	want := map[string]int64{"gen": 2e6, "check": 4e6, "core": 0, "core.compute": 3e6, "core.convert": 1e6}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	// Overlapping children cover their union once.
	sp := []span{{start: 0, end: 10}, {start: 1, end: 3}, {start: 2, end: 5}, {start: 7, end: 8}}
	if got := covered(sp, []int{1, 2, 3}); got != 5 {
		t.Fatalf("covered %d, want 5", got)
	}
	path := t.TempDir() + "/trace.json"
	sum, err := r.write(path)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Spans != 7 || sum.Tracks != 2 {
		t.Fatalf("summary %+v", sum)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateChromeTrace(data); err != nil {
		t.Fatal(err)
	}
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestBenchmarkFileNames(t *testing.T) {
	bf := readBenchmarkFile(t)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name, u, better string) {
		if !metricName.MatchString(name) || seen[name] {
			t.Errorf("bad or repeated name %q", name)
		}
		seen[name] = true
		if !unit.MatchString(u) || (better != "higher" && better != "lower") {
			t.Errorf("%s: unit %q, better %q", name, u, better)
		}
	}
	for _, w := range bf.Workloads {
		check(w.Name, "x", "higher")
		if _, ok := workloads[w.Name]; !ok || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q unknown or its why is empty or long", w.Name)
		}
	}
	for _, m := range bf.EndToEnd {
		check(m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
	}
	for _, m := range bf.PerLayer {
		check(m.Name, m.Unit, m.Better)
	}
}

// TestMetricSetsMatchBenchmarkFile runs each kind of workload briefly,
// untraced and traced (GEMM on small configs), and checks it reports
// exactly the metrics the benchmark file names, with their units.
func TestMetricSetsMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	units := map[string]string{}
	var e2e, layer []string
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.Name)
		units[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, m.Name)
		units[m.Name] = m.Unit
	}
	sort.Strings(e2e)
	sort.Strings(layer)
	runs := map[string]func(runOpts, *result) map[string]metric{
		"gemm":      func(o runOpts, r *result) map[string]metric { return runGEMM(smallConfigs(), o, r) },
		"serve-mix": runServe,
	}
	for name, run := range runs {
		for _, trace := range []bool{false, true} {
			o := runOpts{seed: 1, seconds: time.Second, trace: trace, workers: 2}
			want := e2e
			if trace {
				o.rec = newRecorder()
				want = layer
			}
			res := &result{}
			out := run(o, res)
			if !trace {
				out["ok_frac"] = metric{Unit: "fraction"}
				if _, ok := out["mem_peak_mb"]; !ok {
					out["mem_peak_mb"] = metric{Unit: "MiB"}
				}
			}
			var got []string
			for n, m := range out {
				got = append(got, n)
				if units[n] != m.Unit {
					t.Errorf("%s: %s: unit %q, benchmark file says %q", name, n, m.Unit, units[n])
				}
			}
			sort.Strings(got)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v: metrics\n%v\nwant\n%v", name, trace, got, want)
			}
			// The serve-mix rate is fixed, so a slowed build (the race
			// detector) may shed requests; only the GEMM calls must all pass.
			if name == "gemm" && (res.failed != 0 || (!trace && res.attempted < minGemmCalls)) {
				t.Errorf("%s trace=%v: %d of %d ops failed", name, trace, res.failed, res.attempted)
			}
		}
	}
}
