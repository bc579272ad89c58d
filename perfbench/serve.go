package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"time"

	"mgsilt/internal/core"
	"mgsilt/internal/device"
	"mgsilt/internal/litho"
	"mgsilt/internal/mrc"
	"mgsilt/internal/service"
)

// serveSpec is a workload of closed-loop clients submitting mgs jobs to
// an in-process job service with the tile cache and batcher on.
type serveSpec struct {
	n, clipSize, iters int
	workers, clients   int // job workers; clients, each with one job in flight
	batchSize          int
	cacheBytes         int64 // tile-cache RAM budget, below the unique working set
	perClient          int   // generated jobs per client; the stream wraps beyond it
}

// serveEnv is one set-up of the serve workload.
type serveEnv struct {
	spec    serveSpec
	srv     *service.Server
	streams [][]*clip
	panel   *clip
}

func setupServe(spec serveSpec, seed int64) (*serveEnv, error) {
	streams, err := serveInputs(spec.clipSize, seed, spec.clients, spec.perClient)
	if err != nil {
		return nil, err
	}
	srv, err := service.New(service.Options{
		Workers: spec.workers, CacheBytes: spec.cacheBytes, BatchSize: spec.batchSize,
	})
	if err != nil {
		return nil, err
	}
	e := &serveEnv{spec: spec, srv: srv, streams: streams}
	panel, err := randomClip(spec.clipSize, panelSeed)
	if err != nil {
		e.close()
		return nil, err
	}
	e.panel = panel
	// Warm-up: the server builds its optics on the first job.
	if j := e.job(panel); j.err != nil {
		e.close()
		return nil, j.err
	}
	return e, nil
}

func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_ = e.srv.Shutdown(ctx) // on timeout every job is cancelled and the workers have exited
}

// servedJob is one job's outcome as the client sees it.
type servedJob struct {
	clip   *clip
	status service.Status
	res    *core.Result
	err    error
}

func (j *servedJob) latency() float64 { return j.status.FinishedAt.Sub(j.status.CreatedAt).Seconds() }
func (j *servedJob) run() float64     { return j.status.FinishedAt.Sub(*j.status.StartedAt).Seconds() }
func (j *servedJob) wait() float64    { return j.status.StartedAt.Sub(j.status.CreatedAt).Seconds() }

// job submits c and waits for the job to finish, polling its status.
func (e *serveEnv) job(c *clip) *servedJob {
	s := e.spec
	j := &servedJob{clip: c}
	st, err := e.srv.Submit(service.JobSpec{
		Flow: "mgs", N: s.n, ClipSize: s.clipSize, Iters: s.iters, LayoutRects: c.rects,
	})
	if err != nil {
		j.err = err
		return j
	}
	for !st.State.Terminal() {
		time.Sleep(500 * time.Microsecond)
		if st, err = e.srv.Status(st.ID); err != nil {
			j.err = err
			return j
		}
	}
	j.status = st
	if st.State != service.StateDone {
		j.err = fmt.Errorf("job %s (clip %s) ended %s: %s", st.ID, c.id, st.State, st.Error)
		return j
	}
	j.res, _, j.err = e.srv.Result(st.ID)
	return j
}

// scrape returns the server's /metrics samples keyed by name and labels.
func (e *serveEnv) scrape() map[string]float64 {
	rec := httptest.NewRecorder()
	e.srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	out := map[string]float64{}
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if strings.HasPrefix(line, "#") || i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// runServeWorkload runs the serve workload: set-up, an untimed
// in-process reference run of the panel clip, then the clients' closed
// loops for o.seconds. Every job must finish done, every clip's masks
// must be byte-identical across its jobs (repeats are cache hits), and
// the panel's must equal the reference.
func runServeWorkload(spec serveSpec, o runOpts) (*outcome, error) {
	out := newOutcome()
	var env *serveEnv
	var setups []float64
	for moreSetups(setups) {
		if env != nil {
			env.close()
		}
		start := time.Now()
		var err error
		if env, err = setupServe(spec, o.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer env.close()
	out.m["setup_s"] = median(setups)

	ref, sim, err := serveReference(spec, env.panel)
	if err != nil {
		return nil, err
	}
	digests := map[string]string{env.panel.id: maskDigest(ref.Mask)}

	before := env.scrape()
	k0 := litho.KernelsEvaluatedTotal()
	mem := memNow()
	var tr *tracer
	if o.trace {
		tr = newTracer(o.traceID)
	}
	var mu sync.Mutex
	var jobs []*servedJob
	var wrapped bool
	loopStart := time.Now()
	var wg sync.WaitGroup
	for c := range env.streams {
		stream := env.streams[c]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; time.Since(loopStart).Seconds() < o.seconds; i++ {
				j := env.job(stream[i%len(stream)])
				mu.Lock()
				jobs = append(jobs, j)
				wrapped = wrapped || i >= len(stream)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	window := time.Since(loopStart).Seconds()
	mem.since(out.m, len(jobs))
	after := env.scrape()
	kernels := litho.KernelsEvaluatedTotal() - k0
	if wrapped {
		out.note("a client used up its %d generated jobs and resubmitted from the start", spec.perClient)
	}

	var lat, runs, waits []float64
	stage := map[string]float64{}
	var done int
	var root int64
	var recording time.Duration
	if tr != nil {
		root = tr.add("workload", 0, loopStart, loopStart.Add(time.Duration(window*float64(time.Second))))
	}
	for _, j := range jobs {
		out.attempted++
		if j.err != nil {
			out.fail("%v", j.err)
			continue
		}
		d := maskDigest(j.res.Mask)
		if want, ok := digests[j.clip.id]; !ok {
			digests[j.clip.id] = d
		} else if d != want {
			out.fail("clip %s: job %s mask %s differs from %s", j.clip.id, j.status.ID, d[:12], want[:12])
		}
		done++
		lat = append(lat, j.latency())
		runs = append(runs, j.run())
		waits = append(waits, j.wait())
		for _, st := range j.status.StageTimeline {
			stage[st.Stage] += st.WallMS / 1e3
		}
		if tr != nil {
			start := time.Now()
			traceJob(tr, root, j)
			recording += time.Since(start)
		}
	}
	if done == 0 {
		return nil, fmt.Errorf("serve: no job finished in %.1f s", window)
	}
	n := float64(done)

	tl, pct := tail(lat)
	out.m["tat_s"] = median(runs)
	out.m["job_p50_s"] = median(lat)
	out.m["job_tail_s"] = tl
	out.m["jobs_per_s"] = throughput(jobs, loopStart, o.seconds, window)
	out.m["run.jobs"] = n
	out.m["run.tail_pct"] = float64(pct)
	out.note("jobs: %d done over %.1f s by %d clients; job_tail_s is p%d", done, window, spec.clients, pct)
	out.m["l2_px"] = ref.L2
	out.m["pvband_px"] = ref.PVBand
	out.m["stitch_loss"] = ref.StitchLoss
	// At the service's default 20-iteration budget the flow need not
	// beat the unmodified target (on the panel clip it does not), so
	// the ratio is reported, not checked.
	out.m["core.l2_vs_target"] = checkInspection(out, sim, env.panel, ref)
	rep, err := mrc.Check(ref.Mask.Binarize(0.5), mrc.DefaultRules())
	if err != nil {
		return nil, err
	}
	out.m["mrc.violations"] = float64(rep.Total())

	if !o.trace {
		return out, nil
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	hits := delta(`ilt_cache_hits_total{tier="ram"}`) + delta(`ilt_cache_hits_total{tier="disk"}`)
	misses := delta("ilt_cache_misses_total")
	out.m["cache.hits"] = hits / n
	out.m["cache.misses"] = misses / n
	out.m["cache.merged"] = delta("ilt_cache_merged_total") / n
	out.m["cache.evictions"] = delta("ilt_cache_evictions_total") / n
	if hits+misses > 0 {
		out.m["cache.hit_ratio"] = hits / (hits + misses)
	}
	req, batches := delta("ilt_sched_requests_total"), delta("ilt_sched_batches_total")
	out.m["sched.requests"] = req / n
	out.m["sched.batches"] = batches / n
	if batches > 0 {
		out.m["sched.mean_batch"] = req / batches
	}
	if req > 0 {
		out.m["sched.batched_frac"] = delta("ilt_sched_batched_requests_total") / req
	}
	out.m["device.jobs"] = delta("ilt_device_jobs_total") / n
	out.m["device.busy_s"] = delta("ilt_device_busy_seconds_total") / n
	out.m["device.sim_elapsed_s"] = delta("ilt_device_sim_elapsed_seconds_total") / n
	out.m["litho.kernels_evaluated"] = float64(kernels) / n
	out.m["service.queue_wait_p50_s"] = median(waits)
	out.m["service.run_p50_s"] = median(runs)
	for _, name := range []string{"coarse", "fine", "refine", "inspect"} {
		out.m["service.stage_"+name+"_s"] = stage[name] / n
		out.m["core."+name+"_s"] = stage[name] / n
	}
	out.m["core.coarse_correct_s"] = stage["coarse-correct"] / n
	var skipped, corrections float64
	for _, j := range jobs {
		if j.res != nil {
			skipped += float64(j.res.TileSolvesSkipped)
			corrections += float64(j.res.CoarseCorrections)
		}
	}
	out.m["core.solves_skipped"] = skipped / n
	out.m["core.coarse_corrections"] = corrections / n
	// Tracing here is the client reading the server's own timestamps
	// after each job, so a traced job runs exactly as an untraced one:
	// the overhead is the recording time itself.
	out.m["trace.overhead_s"] = recording.Seconds() / n
	if err := microLayers(out.m, sim, env.panel.target, spec.n, spec.n/4, spec.n/2); err != nil {
		return nil, err
	}
	out.spans = tr.snapshot()
	return out, nil
}

// throughputWindows is the number of equal windows the serve run's
// throughput is measured over.
const throughputWindows = 5

// throughput returns the jobs completed per second: the median over
// throughputWindows equal windows of the submission period
// [start, start+seconds), so a burst of host load within one window
// does not move the run's figure. Each job counts in a window by the
// share of its submit → finish interval that falls in it, so a window's
// count is not rounded to whole jobs and the jobs the clients finish
// after the period count only for their share inside it. A run too
// short for 20 jobs a window gets the plain rate over the whole window.
func throughput(jobs []*servedJob, start time.Time, seconds, window float64) float64 {
	var ok []*servedJob
	for _, j := range jobs {
		if j.err == nil {
			ok = append(ok, j)
		}
	}
	if len(ok) < 20*throughputWindows {
		return float64(len(ok)) / window
	}
	width := seconds / throughputWindows
	counts := make([]float64, throughputWindows)
	for _, j := range ok {
		t0 := j.status.CreatedAt.Sub(start).Seconds()
		t1 := j.status.FinishedAt.Sub(start).Seconds()
		if t1 <= t0 {
			continue
		}
		for i := range counts {
			lo, hi := max(t0, float64(i)*width), min(t1, float64(i+1)*width)
			if hi > lo {
				counts[i] += (hi - lo) / (t1 - t0)
			}
		}
	}
	return median(counts) / width
}

// traceJob records a finished job's spans from the server's timestamps:
// job (submit to finish) → queue and run → the stages of its timeline,
// laid end to end from the job's start.
func traceJob(tr *tracer, parent int64, j *servedJob) {
	st := j.status
	id := tr.add("job", parent, st.CreatedAt, *st.FinishedAt)
	tr.add("queue", id, st.CreatedAt, *st.StartedAt)
	run := tr.add("run", id, *st.StartedAt, *st.FinishedAt)
	at := *st.StartedAt
	for _, s := range st.StageTimeline {
		end := at.Add(time.Duration(s.WallMS * float64(time.Millisecond)))
		tr.add(s.Stage, run, at, end)
		at = end
	}
}

// serveReference runs the panel clip in process with the configuration
// the service gives an mgs job, without cache or batcher.
func serveReference(spec serveSpec, c *clip) (*core.Result, *litho.Simulator, error) {
	sim, err := newSim(spec.n)
	if err != nil {
		return nil, nil, err
	}
	cfg := core.DefaultConfig(sim, spec.clipSize, spec.iters)
	if cfg.Cluster, err = device.NewCluster(1, 0); err != nil {
		return nil, nil, err
	}
	cfg.SolverName = "pixel"
	res, err := core.MultigridSchwarz(cfg, c.target)
	if err != nil {
		return nil, nil, fmt.Errorf("reference flow %s: %w", c.id, err)
	}
	return res, sim, nil
}
