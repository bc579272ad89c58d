package main

import (
	"context"
	"net/http"
	"sort"
	"sync"
	"time"

	"mgsilt/internal/core"
	"mgsilt/internal/device"
	"mgsilt/internal/grid"
	"mgsilt/internal/opt"
	"mgsilt/internal/pipeline"
)

// span is one timed interval of the traced run. Spans nest by Parent
// (0 = root) and share the run's Trace identifier.
type span struct {
	Trace  string  `json:"trace"`
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the tracer started
	End    float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps the run's spans in memory until the run ends. The
// cursor fields name the innermost open stage and tile batch of the
// flow in progress, so spans recorded by hooks that carry no context
// (solver calls, worker requests) can still find their parent. Flow
// workloads run one flow at a time, which is what makes a single
// cursor enough.
type tracer struct {
	trace string
	t0    time.Time

	mu    sync.Mutex
	spans []span
	next  int64
	stage int64 // open stage span, 0 when none
	batch int64 // open tile-batch span, 0 when none
}

func newTracer(trace string) *tracer { return &tracer{trace: trace, t0: time.Now()} }

func (t *tracer) at(x time.Time) float64 { return x.Sub(t.t0).Seconds() }

// add records a finished span and returns its ID.
func (t *tracer) add(name string, parent int64, start, end time.Time) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{t.trace, t.next, parent, name, t.at(start), t.at(end)})
	return t.next
}

// open starts a span whose end is filled in by close.
func (t *tracer) open(name string, parent int64) int64 {
	now := time.Now()
	return t.add(name, parent, now, now)
}

func (t *tracer) close(id int64) {
	end := t.at(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = end
}

func (t *tracer) cursor() (stage, batch int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stage, t.batch
}

func (t *tracer) setStage(id int64) {
	t.mu.Lock()
	t.stage = id
	t.mu.Unlock()
}

func (t *tracer) setBatch(id int64) {
	t.mu.Lock()
	t.batch = id
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// instrumentFlow installs the stage hooks on cfg: Progress opens a
// stage span under flow, StageDone closes it.
func (t *tracer) instrumentFlow(cfg *core.Config, flow int64) {
	cfg.Progress = func(stage string, _, _ int) {
		t.setStage(t.open(stage, flow))
	}
	cfg.StageDone = func(pipeline.StageTiming) {
		if id, _ := t.cursor(); id != 0 {
			t.close(id)
			t.setStage(0)
		}
	}
}

// selfTimes returns, per span name, the summed span durations minus
// the part of each span its children cover.
func selfTimes(spans []span) map[string]float64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered returns how much of parent's interval the union of kids
// covers.
func covered(parent span, kids []span) float64 {
	iv := make([][2]float64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]float64{lo, hi})
		}
	}
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total := 0.0
	lo, hi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
		} else if x[1] > hi {
			hi = x[1]
		}
	}
	return total + hi - lo
}

// solverStats counts the calls a timedSolver saw.
type solverStats struct {
	mu     sync.Mutex
	solves int // tile solves, one per tile of a batch
	iters  int // Σ Params.Iters over those solves
	busy   time.Duration
}

func (s *solverStats) snapshot() (solves, iters int, busy time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.solves, s.iters, s.busy
}

// timedSolver records a span and the solver counters for every solve
// of the wrapped solver. wrapSolver picks the variant that forwards
// exactly the optional interfaces the wrapped solver implements: a
// wrapper that hid opt.Fingerprinter would silently switch off the
// tile cache and batcher, and one that claimed it for a solver without
// it would key the cache on a fingerprint that does not exist.
type timedSolver struct {
	inner opt.Solver
	tr    *tracer
	stats *solverStats
}

func (s *timedSolver) Name() string { return s.inner.Name() }

func (s *timedSolver) Solve(target, init *grid.Mat, p opt.Params) (*grid.Mat, error) {
	start := time.Now()
	out, err := s.inner.Solve(target, init, p)
	s.record(start, 1, p.Iters)
	return out, err
}

func (s *timedSolver) record(start time.Time, tiles, iters int) {
	end := time.Now()
	stage, batch := s.tr.cursor()
	parent := batch
	if parent == 0 {
		parent = stage
	}
	s.tr.add("tile-solve", parent, start, end)
	s.stats.mu.Lock()
	s.stats.solves += tiles
	s.stats.iters += iters
	s.stats.busy += end.Sub(start)
	s.stats.mu.Unlock()
}

func (s *timedSolver) fingerprint() string { return s.inner.(opt.Fingerprinter).Fingerprint() }

func (s *timedSolver) solveBatch(targets, inits []*grid.Mat, ps []opt.Params) ([]*grid.Mat, []error) {
	start := time.Now()
	outs, errs := s.inner.(opt.BatchSolver).SolveBatch(targets, inits, ps)
	iters := 0
	for _, p := range ps {
		iters += p.Iters
	}
	s.record(start, len(ps), iters)
	return outs, errs
}

type fpSolver struct{ *timedSolver }

func (s fpSolver) Fingerprint() string { return s.fingerprint() }

type batchSolver struct{ *timedSolver }

func (s batchSolver) SolveBatch(t, i []*grid.Mat, ps []opt.Params) ([]*grid.Mat, []error) {
	return s.solveBatch(t, i, ps)
}

type fpBatchSolver struct{ *timedSolver }

func (s fpBatchSolver) Fingerprint() string { return s.fingerprint() }
func (s fpBatchSolver) SolveBatch(t, i []*grid.Mat, ps []opt.Params) ([]*grid.Mat, []error) {
	return s.solveBatch(t, i, ps)
}

func wrapSolver(inner opt.Solver, tr *tracer, stats *solverStats) opt.Solver {
	base := &timedSolver{inner, tr, stats}
	_, fp := inner.(opt.Fingerprinter)
	_, batch := inner.(opt.BatchSolver)
	switch {
	case fp && batch:
		return fpBatchSolver{base}
	case fp:
		return fpSolver{base}
	case batch:
		return batchSolver{base}
	}
	return base
}

// timedBackend records a tile-batch span around every SolveTiles call
// of the wrapped backend. wrapBackend forwards core.BackendStats when
// the wrapped backend has it, so the flow's TAT and device accounting
// still include the remote clock.
type timedBackend struct {
	inner core.TileBackend
	tr    *tracer
}

func (b *timedBackend) SolveTiles(ctx context.Context, reqs []core.TileRequest) ([]*grid.Mat, error) {
	stage, _ := b.tr.cursor()
	id := b.tr.open("tile-batch", stage)
	b.tr.setBatch(id)
	defer func() {
		b.tr.close(id)
		b.tr.setBatch(0)
	}()
	return b.inner.SolveTiles(ctx, reqs)
}

type statsBackend struct{ *timedBackend }

func (b statsBackend) SimElapsed() time.Duration {
	return b.inner.(core.BackendStats).SimElapsed()
}

func (b statsBackend) ClusterStats() device.Stats {
	return b.inner.(core.BackendStats).ClusterStats()
}

func wrapBackend(inner core.TileBackend, tr *tracer) core.TileBackend {
	base := &timedBackend{inner, tr}
	if _, ok := inner.(core.BackendStats); ok {
		return statsBackend{base}
	}
	return base
}

// timedHandler records a worker-solve span for every request the
// wrapped shard worker serves during a traced tile batch, under that
// batch.
func timedHandler(inner http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		inner.ServeHTTP(w, r)
		if _, batch := tr.cursor(); batch != 0 {
			tr.add("worker-solve", batch, start, time.Now())
		}
	})
}
