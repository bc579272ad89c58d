package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"mgsilt/internal/cache"
	"mgsilt/internal/core"
	"mgsilt/internal/grid"
	"mgsilt/internal/opt"
	"mgsilt/internal/sched"
)

// Small versions of the workloads keep the tests fast.
var (
	tinyFlow  = flowSpec{n: 32, clipSize: 64, iters: 100, solver: "pixel", seeded: 1}
	tinyShard = flowSpec{
		n: 32, clipSize: 64, iters: 100, solver: "curvy",
		coarseCorrect: true, fineStages: 4, dropTol: 0.05, shardWorkers: 2,
	}
	tinyServe = serveSpec{
		n: 32, clipSize: 64, iters: 6, workers: 2, clients: 2,
		batchSize: 2, cacheBytes: 1 << 20, perClient: 20,
	}
)

func clipIDs(cs []*clip) (ids []string) {
	for _, c := range cs {
		ids = append(ids, c.id+"\n"+c.rects)
	}
	return ids
}

func TestSeedDrivesInputs(t *testing.T) {
	pool1, order1, err := flowInputs(128, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	pool2, order2, _ := flowInputs(128, 7, 3)
	pool3, _, _ := flowInputs(128, 8, 3)
	if !reflect.DeepEqual(clipIDs(pool1), clipIDs(pool2)) || !reflect.DeepEqual(order1, order2) {
		t.Fatal("the same seed gave different flow inputs")
	}
	for i := range pool1 {
		if !pool1[i].target.Equal(pool2[i].target) {
			t.Fatalf("clip %d: the same seed gave different targets", i)
		}
	}
	if pool1[0].id != pool3[0].id {
		t.Fatal("the panel clip depends on the seed")
	}
	if reflect.DeepEqual(clipIDs(pool1[1:]), clipIDs(pool3[1:])) {
		t.Fatal("a different seed gave the same seeded clips")
	}

	s1, err := serveInputs(64, 7, 2, 30)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := serveInputs(64, 7, 2, 30)
	s3, _ := serveInputs(64, 8, 2, 30)
	for c := range s1 {
		if !reflect.DeepEqual(clipIDs(s1[c]), clipIDs(s2[c])) {
			t.Fatalf("client %d: the same seed gave different job streams", c)
		}
		if reflect.DeepEqual(clipIDs(s1[c]), clipIDs(s3[c])) {
			t.Fatalf("client %d: a different seed gave the same job stream", c)
		}
	}
}

// plainSolver implements only opt.Solver.
type plainSolver struct{ opt.Solver }

func (s plainSolver) Solve(t, i *grid.Mat, p opt.Params) (*grid.Mat, error) {
	return s.Solver.Solve(t, i, p)
}
func (s plainSolver) Name() string { return s.Solver.Name() }

// fpOnlySolver adds opt.Fingerprinter and nothing else.
type fpOnlySolver struct{ plainSolver }

func (s fpOnlySolver) Fingerprint() string { return "fp-only" }

func TestWrappersForwardExactlyTheOptionalInterfaces(t *testing.T) {
	sim, err := newSim(32)
	if err != nil {
		t.Fatal(err)
	}
	pixel := opt.NewPixel(sim)
	tr := newTracer("test")
	for _, tc := range []struct {
		inner     opt.Solver
		fp, batch bool
	}{
		{pixel, true, true},
		{opt.NewCurvy(sim), true, false},
		{fpOnlySolver{plainSolver{pixel}}, true, false},
		{plainSolver{pixel}, false, false},
	} {
		w := wrapSolver(tc.inner, tr, &solverStats{})
		f, fp := w.(opt.Fingerprinter)
		_, batch := w.(opt.BatchSolver)
		if fp != tc.fp || batch != tc.batch {
			t.Errorf("%s: wrapper fingerprint/batch = %v/%v, want %v/%v", tc.inner.Name(), fp, batch, tc.fp, tc.batch)
		}
		if fp && f.Fingerprint() != tc.inner.(opt.Fingerprinter).Fingerprint() {
			t.Errorf("%s: fingerprint not forwarded", tc.inner.Name())
		}
		if w.Name() != tc.inner.Name() {
			t.Errorf("name %q, want %q", w.Name(), tc.inner.Name())
		}
	}

	env, err := setupFlow(tinyShard, 1, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	_, coord, err := env.config(1, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := wrapBackend(coord, tr).(core.BackendStats); !ok {
		t.Error("backend wrapper hides the coordinator's BackendStats")
	}
	if _, ok := wrapBackend(bareBackend{}, tr).(core.BackendStats); ok {
		t.Error("backend wrapper claims BackendStats for a backend without it")
	}
}

type bareBackend struct{}

func (bareBackend) SolveTiles(context.Context, []core.TileRequest) ([]*grid.Mat, error) {
	return nil, nil
}

// TestTracingKeepsBehaviour runs the same clips untraced and traced and
// requires identical masks, device job counts and tile-cache counts:
// in process with the cache and batcher installed, and sharded.
func TestTracingKeepsBehaviour(t *testing.T) {
	for _, spec := range []flowSpec{tinyFlow, tinyShard} {
		tr := newTracer("test")
		env, err := setupFlow(spec, 3, tr)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range env.pool {
			type obs struct {
				digest string
				jobs   int
				cache  cache.Stats
			}
			var got []obs
			for _, mtr := range []*tracer{nil, tr} {
				var o obs
				if spec.shardWorkers > 0 {
					r, err := env.run(c, mtr, 0)
					if err != nil {
						t.Fatal(err)
					}
					o = obs{maskDigest(r.res.Mask), r.res.Stats.Jobs, cache.Stats{}}
				} else {
					cfg, _, err := env.config(1, false)
					if err != nil {
						t.Fatal(err)
					}
					if cfg.TileCache, err = cache.New(cache.Options{}); err != nil {
						t.Fatal(err)
					}
					cfg.Batch = sched.New(sched.Options{BatchSize: 2})
					if mtr != nil {
						cfg.Solver = wrapSolver(cfg.Solver, mtr, &solverStats{})
						mtr.instrumentFlow(&cfg, 0)
					}
					res, err := core.MultigridSchwarz(cfg, c.target)
					if err != nil {
						t.Fatal(err)
					}
					o = obs{maskDigest(res.Mask), res.Stats.Jobs, cfg.TileCache.Stats()}
				}
				got = append(got, o)
			}
			if got[0] != got[1] {
				t.Errorf("%s: untraced %+v, traced %+v", c.id, got[0], got[1])
			}
			if got[0].cache.Hits+got[0].cache.Misses == 0 && spec.shardWorkers == 0 {
				t.Errorf("%s: the tile cache was never consulted", c.id)
			}
		}
		env.close()
		if len(tr.snapshot()) == 0 {
			t.Error("the traced runs recorded no spans")
		}
	}
}

// TestWorkloadsRunAndCheck runs each workload kind end to end, untraced
// and traced, at a tiny size.
func TestWorkloadsRunAndCheck(t *testing.T) {
	runs := map[string]func(runOpts) (*outcome, error){
		"flow":  func(o runOpts) (*outcome, error) { return runFlowWorkload(tinyFlow, o) },
		"shard": func(o runOpts) (*outcome, error) { return runFlowWorkload(tinyShard, o) },
		"serve": func(o runOpts) (*outcome, error) { return runServeWorkload(tinyServe, o) },
	}
	for name, run := range runs {
		for _, trace := range []bool{false, true} {
			out, err := run(runOpts{workload: name, seed: 5, seconds: 0.5, trace: trace, traceID: "test"})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if len(out.problems) > 0 || out.attempted == 0 {
				t.Fatalf("%s trace=%v: %d attempted, problems %v", name, trace, out.attempted, out.problems)
			}
			for _, k := range []string{"setup_s", "tat_s", "job_p50_s", "jobs_per_s", "l2_px"} {
				if out.m[k] <= 0 {
					t.Errorf("%s trace=%v: %s = %v", name, trace, k, out.m[k])
				}
			}
			if trace && (len(out.spans) == 0 || out.m["litho.lossgrad_ms"] <= 0) {
				t.Errorf("%s: traced run has %d spans, lossgrad %v ms", name, len(out.spans), out.m["litho.lossgrad_ms"])
			}
		}
	}
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not in the program", w.Name)
		}
	}
	check := func(kind string, want []metricDef, got []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", endToEnd, doc.EndToEnd)
	check("per_layer", perLayer, doc.PerLayer)
}

func TestTailAndCoverage(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, pct := tail(xs); v != 30 || pct != 75 {
		t.Errorf("tail of 1..40 = %v at p%d, want 30 at p75", v, pct)
	}
	if v, pct := tail(xs[:20]); v != 10.5 || pct != 50 {
		t.Errorf("tail of 1..20 = %v at p%d, want the median 10.5 at p50", v, pct)
	}
	parent := span{ID: 1, Start: -5, End: 5}
	kids := []span{{Start: -6, End: -4}, {Start: -4.5, End: -3}, {Start: 0, End: 1}, {Start: 4, End: 9}}
	if got := covered(parent, kids); got != 4 {
		t.Errorf("covered = %v, want 4", got)
	}
}
