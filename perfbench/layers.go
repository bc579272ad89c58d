package main

import (
	"math"
	"time"

	"mgsilt/internal/cache"
	"mgsilt/internal/fft"
	"mgsilt/internal/filter"
	"mgsilt/internal/grid"
	"mgsilt/internal/litho"
	"mgsilt/internal/mrc"
	"mgsilt/internal/opt"
	"mgsilt/internal/parallel"
	"mgsilt/internal/tile"
)

// timeCall returns the median wall time of fn in milliseconds, after
// one untimed warm-up call. It repeats fn for at least 3 calls and
// 100 ms, at most 50 calls. prep, when non-nil, runs untimed before
// each call.
func timeCall(prep, fn func()) float64 {
	if prep != nil {
		prep()
	}
	fn()
	var ms []float64
	var total time.Duration
	for len(ms) < 3 || (total < 100*time.Millisecond && len(ms) < 50) {
		if prep != nil {
			prep()
		}
		start := time.Now()
		fn()
		d := time.Since(start)
		total += d
		ms = append(ms, float64(d.Nanoseconds())/1e6)
	}
	return median(ms)
}

// microLayers times each layer's public entry point on inputs cut from
// the workload's panel clip, at the workload's tile shape, and stores
// the per-call figures in m.
func microLayers(m map[string]float64, sim *litho.Simulator, target *grid.Mat, tileSize, margin, blend int) error {
	p, err := tile.Part(target.H, target.W, tileSize, margin)
	if err != nil {
		return err
	}
	tiles := p.Extract(target)
	t := tiles[len(tiles)/2]

	// FFT: the real forward transform and the complex inverse the
	// Hopkins adjoint runs, 5·M·log2(M) flops per M-point transform.
	spec := grid.NewCMat(t.H, t.W)
	m["fft.real2d_ms"] = timeCall(nil, func() { fft.ForwardReal2D(spec, t) })
	freq := fft.ForwardReal(t)
	work := grid.NewCMat(t.H, t.W)
	inv := timeCall(func() { copy(work.Data, freq.Data) }, func() { fft.Inverse2D(work) })
	m["fft.inverse2d_ms"] = inv
	pts := float64(t.H * t.W)
	m["fft.inverse2d_gflops"] = 5 * pts * math.Log2(pts) / (inv / 1e3) / 1e9

	opts := litho.LossOpts{Stretch: 1}
	lossGrad := func() {
		_, g := sim.LossGrad(t, t, opts)
		grid.PutMat(g)
	}
	m["litho.lossgrad_ms"] = timeCall(nil, lossGrad)
	width := parallel.Workers()
	parallel.SetWorkers(1)
	m["litho.lossgrad_1w_ms"] = timeCall(nil, lossGrad)
	parallel.SetWorkers(width)
	m["litho.aerial_ms"] = timeCall(nil, func() { sim.Aerial(t, sim.Nominal()) })

	m["filter.curvature_ms"] = timeCall(nil, func() { filter.Curvature(t) })
	var checkErr error
	m["mrc.check_ms"] = timeCall(nil, func() { _, checkErr = mrc.Check(target, mrc.DefaultRules()) })
	if checkErr != nil {
		return checkErr
	}

	weights, err := p.Weights(blend)
	if err != nil {
		return err
	}
	m["tile.assemble_ms"] = timeCall(nil, func() { p.Assemble(tiles, weights) })

	in := cache.KeyInput{
		Optics: sim.Fingerprint(), Solver: opt.NewPixel(sim).Fingerprint(),
		Iters: 10, Stretch: 1, LR: 0.4, Target: t, Init: t, Freeze: t,
	}
	var keyErr error
	m["cache.key_us"] = 1e3 * timeCall(nil, func() { _, keyErr = in.Key() })
	return keyErr
}
