// Package benchfmt defines the machine-readable benchmark trajectory
// document written by `cmd/iltbench -json` and consumed by
// `cmd/benchdiff` — the contract behind the bench-regression CI gate.
//
// A Doc carries four groups of data:
//
//   - Provenance: a map of labels for what the run measured (scale,
//     optics, compute pool width, shard count, solver, ...). benchdiff
//     refuses to compare documents whose provenance differs, so the
//     gate can never diff incomparable runs.
//   - Gauges: a map of gated scalar measurements (allocations, cache
//     hit rate, convergence). Their directions and slacks live in the
//     gauges policy table in this package, not in the documents.
//   - Calibration: CalibNS is the wall time of a fixed, self-contained
//     floating-point reference workload measured by the producing
//     host (see Calibrate). Dividing measured TATs by it removes the
//     host's raw CPU speed from the comparison, which is what makes a
//     committed baseline meaningful on a differently-sized CI runner.
//     The calibration loop deliberately shares no code with the
//     repository's hot paths: optimising the FFT must show up as a
//     TAT improvement, not vanish into the denominator.
//   - Experiments: per-method metric groups (the Table 1 columns) and
//     raw rendered tables for any experiment.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"time"

	"mgsilt/internal/report"
)

// Method is one method's metric group within an experiment: the
// Table 1 columns plus the row normalised against "Ours".
type Method struct {
	Name    string         `json:"name"`
	Metrics report.Metrics `json:"metrics"`
	Ratio   report.Metrics `json:"ratio"`
}

// Experiment captures one experiment's output: structured per-method
// metrics when the experiment produces them (table1) and the raw table
// (headers + rows) always, so perf-trajectory tooling can diff any
// experiment across PRs.
type Experiment struct {
	Name    string     `json:"experiment"`
	Methods []Method   `json:"methods,omitempty"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

// Doc is the trajectory document (BENCH_*.json).
type Doc struct {
	GeneratedAt string `json:"generated_at"`
	// GitDescribe identifies the producing tree (git describe
	// --always --dirty), recorded for artifact forensics only.
	GitDescribe string `json:"git_describe,omitempty"`
	// CalibNS is the host calibration measurement (see Calibrate);
	// 0 means the producer did not calibrate and only absolute TAT
	// comparison is possible.
	CalibNS int64 `json:"calib_ns,omitempty"`
	// Provenance describes what the run measured: scale, n, clip,
	// cases, iters, workers (compute pool width), kernels (optics),
	// shard_count and solver. Values are opaque labels; Compare refuses
	// documents whose provenance differs, reading an absent key as its
	// provenanceDefaults entry.
	Provenance map[string]string `json:"provenance,omitempty"`
	// Gauges are the gated scalar measurements, keyed by the names in
	// the gauges policy table.
	Gauges      map[string]float64 `json:"gauges,omitempty"`
	Experiments []Experiment       `json:"experiments"`
}

// gauge is one row of the gate policy for Doc.Gauges. Every gauge is
// deterministic per code version, so its tolerance is an absolute
// slack rather than a relative threshold: a baseline of 0 stays 0.
type gauge struct {
	name                       string  // key in Doc.Gauges
	higherIsBetter             bool    // a drop, not a rise, regresses
	slack                      float64 // tolerated move the wrong way
	max                        float64 // largest valid value
	experiment, method, metric string  // Finding labels
}

// gauges is the gate policy, in report order. It lives in code, where
// review sees it; documents carry only measurements. A gauge is
// compared only when both documents carry it, so documents predating
// a gauge stay comparable.
var gauges = []gauge{
	// Steady-state heap allocations per serial LossGrad evaluation
	// (pools warm, one worker); the slack absorbs pool warm-up jitter.
	{"lossgrad_allocs_per_op", false, 0.5, math.Inf(1), "hotpath", "LossGrad", "allocs/op"},
	// Warm-run hit rate of the cache experiment's tile cache; a drop
	// means cache keys started splitting.
	{"cache_hit_rate", true, 0.02, 1, "cache", "TileCache", "hit-rate"},
	// Iterations the two-level Schwarz flow of the scaling experiment
	// needs to reach its quality bar at 8×8 tiles; the slack is one
	// fine stage's budget, absorbing quantisation at stage boundaries.
	{"iterations_to_quality", false, 4, math.Inf(1), "scaling", "TwoLevel", "iters-to-quality"},
	// Fraction of fine-stage tile solves the scaling experiment's
	// dropout phase skipped; a drop means per-tile convergence slowed.
	{"tiles_dropped_rate", true, 0.02, 1, "scaling", "Dropout", "dropped-rate"},
}

// provenanceDefaults is what an absent provenance key reads as; keys
// not listed read as "". It keeps documents that predate a key
// comparable with runs that record the key's default.
var provenanceDefaults = map[string]string{
	"shard_count": "1",     // in-process
	"solver":      "pixel", // opt.DefaultSolver
}

// provenance returns the value of key, or its default when absent.
func (d *Doc) provenance(key string) string {
	if v, ok := d.Provenance[key]; ok {
		return v
	}
	return provenanceDefaults[key]
}

// WriteFile validates the document and marshals it with stable
// indentation.
func (d *Doc) WriteFile(path string) error {
	if err := d.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Parse decodes and validates a trajectory document from raw bytes.
// It is the single entry point for untrusted input (ReadFile routes
// through it, and the fuzz harness attacks it directly), so any
// document it accepts is safe to hand to Compare and the report
// renderers. A document with neither provenance nor gauges is read in
// the legacy shape (see legacyDoc).
func Parse(data []byte) (*Doc, error) {
	var d Doc
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("benchfmt: %w", err)
	}
	if d.Provenance == nil && d.Gauges == nil {
		if err := d.readLegacy(data); err != nil {
			return nil, err
		}
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// legacyDoc is the document shape before Provenance and Gauges, when
// each provenance key and gauge was its own top-level field. Parse
// still reads it, so committed baselines of that shape keep gating;
// WriteFile never writes it.
type legacyDoc struct {
	Scale      string  `json:"scale"`
	Kernels    string  `json:"kernels"`
	Solver     *string `json:"solver"`
	N          *int    `json:"n"`
	Clip       *int    `json:"clip"`
	Cases      *int    `json:"cases"`
	Iters      *int    `json:"iters"`
	Workers    *int    `json:"workers"`
	ShardCount *int    `json:"shard_count"`

	LossGradAllocs      *float64 `json:"lossgrad_allocs_per_op"`
	CacheHitRate        *float64 `json:"cache_hit_rate"`
	IterationsToQuality *float64 `json:"iterations_to_quality"`
	TilesDroppedRate    *float64 `json:"tiles_dropped_rate"`
}

// readLegacy fills d's maps from the legacy top-level fields in data,
// keeping the legacy rejections: negative counts, a shard count below
// 1 and (through Validate) a present but empty solver.
func (d *Doc) readLegacy(data []byte) error {
	var old legacyDoc
	if err := json.Unmarshal(data, &old); err != nil {
		return fmt.Errorf("benchfmt: %w", err)
	}
	d.Provenance, d.Gauges = map[string]string{}, map[string]float64{}
	for _, c := range []struct {
		key string
		v   *int
		min int
	}{
		{"n", old.N, 0}, {"clip", old.Clip, 0}, {"cases", old.Cases, 0},
		{"iters", old.Iters, 0}, {"workers", old.Workers, 0}, {"shard_count", old.ShardCount, 1},
	} {
		if c.v == nil {
			continue
		}
		if *c.v < c.min {
			return fmt.Errorf("benchfmt: %s %d must be >= %d", c.key, *c.v, c.min)
		}
		d.Provenance[c.key] = strconv.Itoa(*c.v)
	}
	// An empty scale or kernels string meant "absent"; an empty solver
	// was an error, so it is kept for Validate to reject.
	for key, v := range map[string]string{"scale": old.Scale, "kernels": old.Kernels} {
		if v != "" {
			d.Provenance[key] = v
		}
	}
	if old.Solver != nil {
		d.Provenance["solver"] = *old.Solver
	}
	for name, v := range map[string]*float64{
		"lossgrad_allocs_per_op": old.LossGradAllocs,
		"cache_hit_rate":         old.CacheHitRate,
		"iterations_to_quality":  old.IterationsToQuality,
		"tiles_dropped_rate":     old.TilesDroppedRate,
	} {
		if v != nil {
			d.Gauges[name] = *v
		}
	}
	return nil
}

// Validate checks the structural invariants every trajectory document
// must satisfy: non-negative calibration, non-empty provenance values,
// known gauges within their policy range, finite non-negative metrics,
// named experiments/methods, and table rows as wide as their headers.
func (d *Doc) Validate() error {
	if d.CalibNS < 0 {
		return fmt.Errorf("benchfmt: negative calibration %d ns", d.CalibNS)
	}
	for key, v := range d.Provenance {
		if v == "" {
			return fmt.Errorf("benchfmt: provenance %s present but empty (omit the key for the default)", key)
		}
	}
	for name, v := range d.Gauges {
		i := slices.IndexFunc(gauges, func(g gauge) bool { return g.name == name })
		switch {
		case i < 0:
			return fmt.Errorf("benchfmt: unknown gauge %q", name)
		case math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > gauges[i].max:
			return fmt.Errorf("benchfmt: gauge %s = %v outside [0, %v]", name, v, gauges[i].max)
		}
	}
	for i := range d.Experiments {
		e := &d.Experiments[i]
		if e.Name == "" {
			return fmt.Errorf("benchfmt: experiment %d has no name", i)
		}
		for j := range e.Methods {
			m := &e.Methods[j]
			if m.Name == "" {
				return fmt.Errorf("benchfmt: %s method %d has no name", e.Name, j)
			}
			for _, v := range []struct {
				name string
				val  float64
			}{
				{"L2", m.Metrics.L2}, {"PVBand", m.Metrics.PVBand},
				{"Stitch", m.Metrics.Stitch}, {"TATSec", m.Metrics.TATSec},
			} {
				if math.IsNaN(v.val) || math.IsInf(v.val, 0) || v.val < 0 {
					return fmt.Errorf("benchfmt: %s/%s metric %s = %v invalid", e.Name, m.Name, v.name, v.val)
				}
			}
		}
		for j, row := range e.Rows {
			if len(e.Headers) > 0 && len(row) != len(e.Headers) {
				return fmt.Errorf("benchfmt: %s row %d has %d cells for %d headers", e.Name, j, len(row), len(e.Headers))
			}
		}
	}
	return nil
}

// ReadFile loads a trajectory document.
func ReadFile(path string) (*Doc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	d, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// calibSink prevents the calibration loop from being optimised away.
var calibSink float64

// Calibrate measures the host's serial floating-point throughput on a
// fixed synthetic workload and returns the best-of-three wall time in
// nanoseconds. The loop is self-contained on purpose (no FFT, no grid
// code): it normalises for hardware speed without absorbing changes to
// the code under test.
func Calibrate() int64 {
	best := int64(math.MaxInt64)
	for r := 0; r < 3; r++ {
		start := time.Now()
		x, s := 1.0001, 0.0
		for i := 0; i < 5_000_000; i++ {
			s += x
			x = x*1.0000001 + 1e-9
			if s > 1e12 {
				s = 1
			}
		}
		calibSink = s + x
		if d := time.Since(start).Nanoseconds(); d < best {
			best = d
		}
	}
	return best
}

// CompareOptions tunes the regression gate.
type CompareOptions struct {
	// TATThreshold is the tolerated relative TAT growth (0.10 = +10%).
	// Defaults to 0.10 when zero.
	TATThreshold float64
	// QualityEps is the tolerated relative growth of the quality
	// metrics (L2 / PVBand / Stitch). The experiments are fully
	// deterministic at fixed code, so any genuine growth is a
	// regression; the epsilon only absorbs float formatting. Defaults
	// to 1e-9 when zero.
	QualityEps float64
	// AbsoluteTAT disables calibration normalisation and compares raw
	// TAT seconds (only meaningful on the machine that produced the
	// baseline).
	AbsoluteTAT bool
}

func (o CompareOptions) withDefaults() CompareOptions {
	if o.TATThreshold == 0 {
		o.TATThreshold = 0.10
	}
	if o.QualityEps == 0 {
		o.QualityEps = 1e-9
	}
	return o
}

// Finding is one detected regression.
type Finding struct {
	Experiment string
	Method     string
	Metric     string
	Base, Cur  float64 // normalised values for TAT, raw for quality
	Rel        float64 // relative growth (Cur/Base - 1); +Inf if Base == 0
}

func (f Finding) String() string {
	return fmt.Sprintf("%s/%s %s: %.6g -> %.6g (%+.1f%%)",
		f.Experiment, f.Method, f.Metric, f.Base, f.Cur, 100*f.Rel)
}

// Result is the outcome of a Compare.
type Result struct {
	Regressions []Finding
	// Checked counts metric comparisons performed, so callers can
	// detect a vacuously green run (no overlapping experiments).
	Checked int
}

// OK reports whether the gate passes.
func (r *Result) OK() bool { return len(r.Regressions) == 0 }

// Compare gates cur against base: any growth of L2 / PVBand / Stitch
// beyond QualityEps, TAT growth beyond TATThreshold (calibration-
// normalised unless AbsoluteTAT), or a gauge moving the wrong way by
// more than its slack is a regression. Documents with mismatched
// provenance return an error instead of a verdict; a method present in
// the baseline but missing from the current run does too.
func Compare(base, cur *Doc, opts CompareOptions) (*Result, error) {
	opts = opts.withDefaults()
	var keys []string
	for _, d := range []*Doc{base, cur} {
		for k := range d.Provenance {
			if !slices.Contains(keys, k) {
				keys = append(keys, k)
			}
		}
	}
	slices.Sort(keys)
	for _, k := range keys {
		if b, c := base.provenance(k), cur.provenance(k); b != c {
			return nil, fmt.Errorf("benchfmt: incomparable runs: %s differs (baseline %s, current %s)", k, b, c)
		}
	}
	tatScale := func(d *Doc) (float64, error) {
		if opts.AbsoluteTAT {
			return 1, nil
		}
		if d.CalibNS <= 0 {
			return 0, fmt.Errorf("benchfmt: document lacks calibration (calib_ns); rerun iltbench or pass absolute-TAT mode")
		}
		return float64(d.CalibNS) / 1e9, nil
	}
	baseCal, err := tatScale(base)
	if err != nil {
		return nil, err
	}
	curCal, err := tatScale(cur)
	if err != nil {
		return nil, err
	}

	res := &Result{}
	for _, g := range gauges {
		b, inBase := base.Gauges[g.name]
		c, inCur := cur.Gauges[g.name]
		if !inBase || !inCur {
			continue
		}
		res.Checked++
		worse := c > b+g.slack
		if g.higherIsBetter {
			worse = c < b-g.slack
		}
		if worse {
			// c/b is +Inf for growth from a 0 baseline; a drop below 0
			// cannot happen, gauges being non-negative.
			res.Regressions = append(res.Regressions, Finding{
				Experiment: g.experiment, Method: g.method, Metric: g.metric,
				Base: b, Cur: c, Rel: c/b - 1,
			})
		}
	}
	grew := func(baseV, curV, tol float64) (float64, bool) {
		if curV <= baseV*(1+tol) {
			return 0, false
		}
		if baseV == 0 {
			return math.Inf(1), true
		}
		return curV/baseV - 1, true
	}
	for _, be := range base.Experiments {
		if len(be.Methods) == 0 {
			continue
		}
		ce := findExperiment(cur, be.Name)
		if ce == nil {
			return nil, fmt.Errorf("benchfmt: experiment %q missing from current run", be.Name)
		}
		for _, bm := range be.Methods {
			cm := findMethod(ce, bm.Name)
			if cm == nil {
				return nil, fmt.Errorf("benchfmt: method %q missing from current %s", bm.Name, be.Name)
			}
			quality := []struct {
				name      string
				base, cur float64
			}{
				{"L2", bm.Metrics.L2, cm.Metrics.L2},
				{"PVBand", bm.Metrics.PVBand, cm.Metrics.PVBand},
				{"Stitch", bm.Metrics.Stitch, cm.Metrics.Stitch},
			}
			for _, q := range quality {
				res.Checked++
				if rel, bad := grew(q.base, q.cur, opts.QualityEps); bad {
					res.Regressions = append(res.Regressions, Finding{
						Experiment: be.Name, Method: bm.Name, Metric: q.name,
						Base: q.base, Cur: q.cur, Rel: rel,
					})
				}
			}
			res.Checked++
			bTAT := bm.Metrics.TATSec / baseCal
			cTAT := cm.Metrics.TATSec / curCal
			if rel, bad := grew(bTAT, cTAT, opts.TATThreshold); bad {
				res.Regressions = append(res.Regressions, Finding{
					Experiment: be.Name, Method: bm.Name, Metric: "TAT(norm)",
					Base: bTAT, Cur: cTAT, Rel: rel,
				})
			}
		}
	}
	return res, nil
}

func findExperiment(d *Doc, name string) *Experiment {
	for i := range d.Experiments {
		if d.Experiments[i].Name == name {
			return &d.Experiments[i]
		}
	}
	return nil
}

func findMethod(e *Experiment, name string) *Method {
	for i := range e.Methods {
		if e.Methods[i].Name == name {
			return &e.Methods[i]
		}
	}
	return nil
}
