package opt

import (
	"math"

	"mgsilt/internal/grid"
	"mgsilt/internal/litho"
)

// Pixel is the sigmoid-parameterised pixel-based ILT solver: the mask
// is M = σ(slope·θ) with free parameters θ per pixel, optimised with
// Adam against the sigmoid-resist L2 objective. Because every pixel is
// free, the solver nucleates sub-resolution assist features (SRAFs)
// wherever the gradient asks for them.
type Pixel struct {
	Sim *litho.Simulator
	// Slope is the mask-sigmoid steepness; larger values push the
	// solution toward binary masks faster.
	Slope float64
	// FinalSlope, when larger than Slope, anneals the sigmoid
	// steepness linearly from Slope to FinalSlope across the solve.
	// Annealing drives the converged mask toward binary values, so the
	// 0.5-threshold binarisation — and any later small-step refinement
	// — no longer teeters on soft gray edges.
	FinalSlope float64
	// BackgroundBias seeds background parameters slightly above the
	// hard-zero pole so SRAFs can nucleate (a hard 0 has zero sigmoid
	// gradient). Expressed as the background mask level, e.g. 0.08.
	BackgroundBias float64
	// WarmupIters linearly ramps the learning rate over the first few
	// iterations. Adam's first bias-corrected steps are ±lr sign steps
	// (m̂/√v̂ = ±1), so a cold restart on a warm mask — exactly what
	// every fine-grid Schwarz stage does — would churn converged
	// pixels; the ramp makes warm restarts nearly free.
	WarmupIters int
	// SmoothWeight is the weight of the mask-smoothness regulariser
	// (½·Σ|∇M|², applied through the sigmoid chain rule). GPU ILT
	// solvers regularise contours for mask manufacturability; without
	// it the binarised masks carry pixel-level jaggies that saturate
	// the stitch-loss metric's baseline.
	SmoothWeight float64
}

// NewPixel returns a Pixel solver with the defaults used throughout
// the experiment suite.
func NewPixel(sim *litho.Simulator) *Pixel {
	return &Pixel{Sim: sim, Slope: 4, FinalSlope: 12, BackgroundBias: 0.08, WarmupIters: 6, SmoothWeight: 0.2}
}

func init() {
	Register("pixel", func(sim *litho.Simulator) Solver { return NewPixel(sim) })
}

// Name implements Solver.
func (s *Pixel) Name() string { return "pixel-ilt" }

// Solve implements Solver: SolveBatch for a batch of one.
func (s *Pixel) Solve(target, init *grid.Mat, p Params) (*grid.Mat, error) {
	outs, errs := s.SolveBatch([]*grid.Mat{target}, []*grid.Mat{init}, []Params{p})
	return outs[0], errs[0]
}

// addLaplacian accumulates the gradient of the smoothness energy
// ½·Σ|∇M|² into gm: d/dM = -ΔM, computed with mirrored boundaries.
func addLaplacian(gm, mask *grid.Mat, w float64) {
	h, wd := mask.H, mask.W
	at := func(y, x int) float64 {
		if y < 0 {
			y = 0
		} else if y >= h {
			y = h - 1
		}
		if x < 0 {
			x = 0
		} else if x >= wd {
			x = wd - 1
		}
		return mask.At(y, x)
	}
	for y := 0; y < h; y++ {
		for x := 0; x < wd; x++ {
			lap := 4*at(y, x) - at(y-1, x) - at(y+1, x) - at(y, x-1) - at(y, x+1)
			gm.Data[y*wd+x] += w * lap
		}
	}
}

func sigmoidAt(x float64) float64 {
	switch {
	case x > 40:
		return 1
	case x < -40:
		return 0
	}
	return 1 / (1 + math.Exp(-x))
}
