package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metricDef names one reported metric and its unit. The two lists below
// are the benchmark's contract with BENCHMARK.json (a test keeps them in
// step): an untraced run prints exactly endToEnd, a traced run exactly
// perLayer.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"tat_s", "s"},
	{"job_p50_s", "s"},
	{"job_tail_s", "s"},
	{"jobs_per_s", "1/s"},
	{"l2_px", "px"},
	{"pvband_px", "px"},
	{"stitch_loss", "px"},
	{"max_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"fft.real2d_ms", "ms"},
	{"fft.inverse2d_ms", "ms"},
	{"fft.inverse2d_gflops", "GFLOP/s"},
	{"litho.kernels_evaluated", "count"},
	{"litho.lossgrad_ms", "ms"},
	{"litho.lossgrad_1w_ms", "ms"},
	{"litho.aerial_ms", "ms"},
	{"opt.solves", "count"},
	{"opt.iters", "count"},
	{"opt.solve_s", "s"},
	{"opt.ms_per_iter", "ms"},
	{"filter.curvature_ms", "ms"},
	{"mrc.check_ms", "ms"},
	{"mrc.violations", "count"},
	{"tile.assemble_ms", "ms"},
	{"core.coarse_s", "s"},
	{"core.fine_s", "s"},
	{"core.coarse_correct_s", "s"},
	{"core.refine_s", "s"},
	{"core.inspect_s", "s"},
	{"core.solves_skipped", "count"},
	{"core.coarse_corrections", "count"},
	{"core.l2_vs_target", "ratio"},
	{"device.jobs", "count"},
	{"device.busy_s", "s"},
	{"device.sim_elapsed_s", "s"},
	{"shard.tiles", "count"},
	{"shard.halo_bytes", "bytes"},
	{"shard.full_bytes", "bytes"},
	{"shard.halo_frac", "ratio"},
	{"shard.batch_s", "s"},
	{"shard.worker_s", "s"},
	{"shard.wait_s", "s"},
	{"shard.request_retries", "count"},
	{"shard.reassigned_tiles", "count"},
	{"cache.hits", "count"},
	{"cache.misses", "count"},
	{"cache.merged", "count"},
	{"cache.evictions", "count"},
	{"cache.hit_ratio", "ratio"},
	{"cache.key_us", "us"},
	{"sched.requests", "count"},
	{"sched.batches", "count"},
	{"sched.mean_batch", "count"},
	{"sched.batched_frac", "ratio"},
	{"service.queue_wait_p50_s", "s"},
	{"service.run_p50_s", "s"},
	{"service.stage_coarse_s", "s"},
	{"service.stage_fine_s", "s"},
	{"service.stage_refine_s", "s"},
	{"service.stage_inspect_s", "s"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"run.jobs", "count"},
	{"run.tail_pct", "%"},
	{"trace.spans", "count"},
	{"trace.overhead_s", "s"},
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tail returns the highest percentile of xs that has at least ten
// samples above it, and that percentile. With fewer than 21 samples no
// percentile at or above the median qualifies, so the median (p50) is
// returned instead.
func tail(xs []float64) (value float64, pct int) {
	n := len(xs)
	if n < 21 {
		return median(xs), 50
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := n - 11 // s[k] has exactly ten samples after it
	return s[k], 100 * (k + 1) / n
}

// maxRSSMB returns the process's peak resident set (VmHWM) in MiB,
// falling back to the Go runtime's reserved memory where /proc is not
// available.
func maxRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// memDelta measures allocation and GC activity over a window.
type memDelta struct{ alloc, gc uint64 }

func memNow() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{ms.TotalAlloc, uint64(ms.NumGC)}
}

// since stores the MiB allocated and GC cycles run since d, per each of
// the window's n flows or jobs, in m.
func (d memDelta) since(m map[string]float64, n int) {
	if n == 0 {
		return
	}
	now := memNow()
	m["runtime.alloc_mb"] = float64(now.alloc-d.alloc) / (1 << 20) / float64(n)
	m["runtime.gc_cycles"] = float64(now.gc-d.gc) / float64(n)
}
