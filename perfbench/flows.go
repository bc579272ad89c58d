package main

import (
	"fmt"
	"net/http/httptest"
	"runtime"
	"time"

	"mgsilt/internal/core"
	"mgsilt/internal/device"
	"mgsilt/internal/grid"
	"mgsilt/internal/kernels"
	"mgsilt/internal/litho"
	"mgsilt/internal/metrics"
	"mgsilt/internal/mrc"
	"mgsilt/internal/opt"
	"mgsilt/internal/shard"
)

// flowSpec is a workload that calls core.MultigridSchwarz serially:
// one caller, closed loop, one clip at a time.
type flowSpec struct {
	n, clipSize, iters int
	solver             string
	coarseCorrect      bool
	fineStages         int // 0 keeps the default schedule
	dropTol            float64
	// shardWorkers > 0 routes the tile fan-out through a
	// shard.Coordinator to that many in-process shard.Workers behind
	// loopback HTTP servers; 0 solves on one in-process device.
	shardWorkers int
	seeded       int // seeded clips in the pool besides the panel clip
}

// newSim builds the optics every process of the repository builds for
// grid n (cmd/iltrun, the job service, shard workers).
func newSim(n int) (*litho.Simulator, error) {
	kc := kernels.DefaultConfig(n)
	nom, err := kernels.Generate(kc)
	if err != nil {
		return nil, err
	}
	def, err := kernels.Defocused(kc, 0.8)
	if err != nil {
		return nil, err
	}
	return litho.New(nom, def, litho.DefaultConfig())
}

// flowEnv is one set-up of a flow workload.
type flowEnv struct {
	spec    flowSpec
	sim     *litho.Simulator
	pool    []*clip
	order   []int
	servers []*httptest.Server
	runs    int // flows started, for unique shard session IDs
}

func setupFlow(spec flowSpec, seed int64, tr *tracer) (*flowEnv, error) {
	sim, err := newSim(spec.n)
	if err != nil {
		return nil, err
	}
	pool, order, err := flowInputs(spec.clipSize, seed, spec.seeded)
	if err != nil {
		return nil, err
	}
	e := &flowEnv{spec: spec, sim: sim, pool: pool, order: order}
	for i := 0; i < spec.shardWorkers; i++ {
		w, err := shard.NewWorker(shard.WorkerOptions{})
		if err != nil {
			e.close()
			return nil, err
		}
		h := w.Handler()
		if tr != nil {
			h = timedHandler(h, tr)
		}
		e.servers = append(e.servers, httptest.NewServer(h))
	}
	// Warm-up: FFT plans and the simulator's prepared kernels.
	t := pool[0].target.Crop(0, 0, spec.n, spec.n)
	_, g := sim.LossGrad(t, t, litho.LossOpts{Stretch: 1})
	grid.PutMat(g)
	return e, nil
}

func (e *flowEnv) close() {
	for _, s := range e.servers {
		s.Close()
	}
	e.servers = nil
}

// config returns the flow configuration; sharded selects the shard
// coordinator (when the workload has one) over in-process devices.
func (e *flowEnv) config(devices int, sharded bool) (core.Config, *shard.Coordinator, error) {
	s := e.spec
	cfg := core.DefaultConfig(e.sim, s.clipSize, s.iters)
	cl, err := device.NewCluster(devices, 0)
	if err != nil {
		return cfg, nil, err
	}
	cfg.Cluster = cl
	cfg.SolverName = s.solver
	if cfg.Solver, err = opt.New(s.solver, e.sim); err != nil {
		return cfg, nil, err
	}
	if s.fineStages > 0 {
		cfg.FineStages = s.fineStages
	}
	cfg.CoarseCorrect = s.coarseCorrect
	cfg.DropTol = s.dropTol
	if !sharded || len(e.servers) == 0 {
		return cfg, nil, nil
	}
	urls := make([]string, len(e.servers))
	for i, srv := range e.servers {
		urls[i] = srv.URL
	}
	e.runs++
	coord, err := shard.NewCoordinator(shard.Config{
		Workers: urls, N: s.n, Solver: s.solver, RunID: fmt.Sprintf("perfbench-%d", e.runs),
	})
	if err != nil {
		return cfg, nil, err
	}
	cfg.Tiles = coord
	return cfg, coord, nil
}

// flowRun is one flow call and what it cost.
type flowRun struct {
	res     *core.Result
	wall    float64 // seconds, inspection included
	kernels int64   // Hopkins kernels evaluated during the call
	shard   shard.Stats
	solves  int
	iters   int
	solveS  float64
}

// run executes the workload's flow on c. A non-nil tracer records the
// flow, its stages, tile batches and tile solves under parent.
func (e *flowEnv) run(c *clip, tr *tracer, parent int64) (*flowRun, error) {
	cfg, coord, err := e.config(1, true)
	if err != nil {
		return nil, err
	}
	var stats solverStats
	var flow int64
	if tr != nil {
		flow = tr.open("flow", parent)
		tr.instrumentFlow(&cfg, flow)
		cfg.Solver = wrapSolver(cfg.Solver, tr, &stats)
		if cfg.Tiles != nil {
			cfg.Tiles = wrapBackend(cfg.Tiles, tr)
		}
	}
	k0 := litho.KernelsEvaluatedTotal()
	start := time.Now()
	res, err := core.MultigridSchwarz(cfg, c.target)
	wall := time.Since(start).Seconds()
	if tr != nil {
		tr.close(flow)
	}
	if err != nil {
		return nil, fmt.Errorf("flow %s: %w", c.id, err)
	}
	r := &flowRun{res: res, wall: wall, kernels: litho.KernelsEvaluatedTotal() - k0}
	if coord != nil {
		r.shard = coord.Stats()
	}
	solves, iters, busy := stats.snapshot()
	r.solves, r.iters, r.solveS = solves, iters, busy.Seconds()
	return r, nil
}

// reference runs the flow on c in process, untimed, on as many
// devices as the workload has shard workers (at least one): the
// result every timed run of c must reproduce byte for byte.
func (e *flowEnv) reference(c *clip) (*core.Result, error) {
	cfg, _, err := e.config(max(1, e.spec.shardWorkers), false)
	if err != nil {
		return nil, err
	}
	res, err := core.MultigridSchwarz(cfg, c.target)
	if err != nil {
		return nil, fmt.Errorf("reference flow %s: %w", c.id, err)
	}
	return res, nil
}

// runFlowWorkload runs a flow workload: set-up, an untimed reference
// run of the panel clip, then the timed (or traced) passes over the
// clip pool, checking every mask against the first mask seen for its
// clip.
func runFlowWorkload(spec flowSpec, o runOpts) (*outcome, error) {
	out := newOutcome()
	var tr *tracer
	if o.trace {
		tr = newTracer(o.traceID)
	}
	var env *flowEnv
	var setups []float64
	for moreSetups(setups) {
		if env != nil {
			env.close()
		}
		start := time.Now()
		var err error
		if env, err = setupFlow(spec, o.seed, tr); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer env.close()
	out.m["setup_s"] = median(setups)

	panel := env.pool[0]
	ref, err := env.reference(panel)
	if err != nil {
		return nil, err
	}
	// A traced run alternates an untraced and a traced flow of each
	// clip: the pair's difference is the tracing overhead.
	modes := []*tracer{nil}
	if tr != nil {
		modes = []*tracer{nil, tr}
	}
	digests := map[string]string{panel.id: maskDigest(ref.Mask)}
	last := map[string]*core.Result{}

	var root int64
	if tr != nil {
		root = tr.open("workload", 0)
	}
	mem := memNow()
	var walls, cycles, tracedWalls, plainWalls []float64
	clipWalls := map[string][]float64{}
	var traced []*flowRun
	loopStart := time.Now()
	// The timed loop runs whole passes over the pool, so every clip
	// weighs the same in the medians whatever its cost: at least one,
	// then more for as long as another pass as long as the last would
	// still end within o.seconds.
	for {
		passStart := time.Now()
		for _, i := range env.order {
			c := env.pool[i]
			for _, mtr := range modes {
				out.attempted++
				cycleStart := time.Now()
				// Each flow starts from a collected heap, as a Go
				// benchmark does, so one flow's garbage is not collected
				// on the next one's time and the peak RSS does not hinge
				// on when a collection happens to start.
				runtime.GC()
				r, err := env.run(c, mtr, root)
				if err != nil {
					out.fail("%v", err)
					continue
				}
				d := maskDigest(r.res.Mask)
				if want, ok := digests[c.id]; !ok {
					digests[c.id] = d
				} else if d != want {
					out.fail("clip %s: mask %s differs from the first mask %s", c.id, d[:12], want[:12])
				}
				last[c.id] = r.res
				walls = append(walls, r.wall)
				cycles = append(cycles, time.Since(cycleStart).Seconds())
				clipWalls[c.id] = append(clipWalls[c.id], r.wall)
				if mtr != nil {
					tracedWalls = append(tracedWalls, r.wall)
					traced = append(traced, r)
				} else {
					plainWalls = append(plainWalls, r.wall)
				}
			}
		}
		if time.Since(loopStart)+time.Since(passStart) > time.Duration(o.seconds*float64(time.Second)) {
			break
		}
	}
	window := time.Since(loopStart).Seconds()
	if tr != nil {
		tr.close(root)
	}
	mem.since(out.m, len(walls))

	p50 := median(walls)
	tl, pct := tail(walls)
	out.m["tat_s"] = p50
	out.m["job_p50_s"] = p50
	out.m["job_tail_s"] = tl
	// One caller runs the flows back to back, so its rate is one flow
	// per cycle (the collection before a flow, then the flow); the
	// median cycle keeps a burst of host load on one flow from moving
	// the whole run's rate.
	if c := median(cycles); c > 0 {
		out.m["jobs_per_s"] = 1 / c
	}
	out.m["run.jobs"] = float64(len(walls))
	out.m["run.tail_pct"] = float64(pct)
	out.note("flows: %d timed over %.1f s; job_tail_s is p%d", len(walls), window, pct)
	for _, c := range env.pool {
		out.note("  clip %s: %d flows, median %.3f s", c.id, len(clipWalls[c.id]), median(clipWalls[c.id]))
	}

	// Quality is the panel clip's, from the untimed reference; every
	// timed panel mask matched it byte for byte above.
	out.m["l2_px"] = ref.L2
	out.m["pvband_px"] = ref.PVBand
	out.m["stitch_loss"] = ref.StitchLoss
	if res := last[panel.id]; res != nil && (res.L2 != ref.L2 || res.PVBand != ref.PVBand || res.StitchLoss != ref.StitchLoss) {
		out.fail("panel quality %v/%v/%v differs from the reference %v/%v/%v", res.L2, res.PVBand, res.StitchLoss, ref.L2, ref.PVBand, ref.StitchLoss)
	}
	// At the paper's schedule ILT must beat printing the target as
	// drawn on every clip.
	for _, c := range env.pool {
		res := last[c.id]
		if res == nil {
			continue
		}
		ratio := checkInspection(out, env.sim, c, res)
		if ratio >= 1 {
			out.fail("clip %s: ILT L2 %v is no better than the unmodified target's %v", c.id, res.L2, res.L2/ratio)
		}
		if c == panel {
			out.m["core.l2_vs_target"] = ratio
		}
	}
	rep, err := mrc.Check(ref.Mask.Binarize(0.5), mrc.DefaultRules())
	if err != nil {
		return nil, err
	}
	out.m["mrc.violations"] = float64(rep.Total())

	if tr != nil {
		out.m["trace.overhead_s"] = median(tracedWalls) - median(plainWalls)
		flowLayers(out.m, traced, tr.snapshot())
		if err := microLayers(out.m, env.sim, panel.target, spec.n, spec.n/4, spec.n/2); err != nil {
			return nil, err
		}
		out.spans = tr.snapshot()
	}
	return out, nil
}

// checkInspection fails the run unless the flow's reported L2 is what
// an independent inspection of its binarised mask measures. It returns
// the ratio of that L2 to the L2 of printing the target unmodified
// (the no-ILT baseline); below 1 the optimisation helped.
func checkInspection(out *outcome, sim *litho.Simulator, c *clip, res *core.Result) float64 {
	if l2 := metrics.L2(sim, res.Mask.Binarize(0.5), c.target); l2 != res.L2 {
		out.fail("clip %s: reported L2 %v, inspection measures %v", c.id, res.L2, l2)
	}
	return res.L2 / metrics.L2(sim, c.target, c.target)
}

// flowLayers stores the per-flow means of the traced flows' layer
// counters and times in m.
func flowLayers(m map[string]float64, runs []*flowRun, spans []span) {
	if len(runs) == 0 {
		return
	}
	n := float64(len(runs))
	stage := map[string]float64{}
	var sh shard.Stats
	for _, r := range runs {
		m["litho.kernels_evaluated"] += float64(r.kernels) / n
		m["opt.solves"] += float64(r.solves) / n
		m["opt.iters"] += float64(r.iters) / n
		m["opt.solve_s"] += r.solveS / n
		m["core.solves_skipped"] += float64(r.res.TileSolvesSkipped) / n
		m["core.coarse_corrections"] += float64(r.res.CoarseCorrections) / n
		m["device.jobs"] += float64(r.res.Stats.Jobs) / n
		m["device.busy_s"] += r.res.Stats.TotalBusy.Seconds() / n
		m["device.sim_elapsed_s"] += r.res.Stats.SimElapsed.Seconds() / n
		for _, st := range r.res.Timeline {
			stage[st.Name] += st.Wall.Seconds() / n
		}
		sh.Tiles += r.shard.Tiles
		sh.HaloBytes += r.shard.HaloBytes
		sh.FullBytes += r.shard.FullBytes
		sh.RequestRetries += r.shard.RequestRetries
		sh.ReassignedTiles += r.shard.ReassignedTiles
	}
	if m["opt.iters"] > 0 {
		m["opt.ms_per_iter"] = 1e3 * m["opt.solve_s"] / m["opt.iters"]
	}
	m["core.coarse_s"] = stage["coarse"]
	m["core.fine_s"] = stage["fine"]
	m["core.coarse_correct_s"] = stage["coarse-correct"]
	m["core.refine_s"] = stage["refine"]
	m["core.inspect_s"] = stage["inspect"]
	m["shard.tiles"] = float64(sh.Tiles) / n
	m["shard.halo_bytes"] = float64(sh.HaloBytes) / n
	m["shard.full_bytes"] = float64(sh.FullBytes) / n
	if total := sh.HaloBytes + sh.FullBytes; total > 0 {
		m["shard.halo_frac"] = float64(sh.HaloBytes) / float64(total)
	}
	m["shard.request_retries"] = float64(sh.RequestRetries) / n
	m["shard.reassigned_tiles"] = float64(sh.ReassignedTiles) / n

	workers := map[int64][]span{}
	for _, s := range spans {
		if s.Name == "worker-solve" {
			workers[s.Parent] = append(workers[s.Parent], s)
		}
	}
	for _, s := range spans {
		if s.Name != "tile-batch" {
			continue
		}
		w := workers[s.ID]
		m["shard.batch_s"] += s.dur() / n
		for _, ws := range w {
			m["shard.worker_s"] += ws.dur() / n
		}
		m["shard.wait_s"] += (s.dur() - covered(s, w)) / n
	}
}
