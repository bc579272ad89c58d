package opt

import (
	"fmt"

	"mgsilt/internal/grid"
)

// Fingerprinter is implemented by solvers whose configuration can be
// serialised into a stable content string. The fingerprint covers
// every solver knob that changes solve outputs — not the simulator,
// whose physics is fingerprinted separately (litho.Simulator
// .Fingerprint) — and feeds the tile-result cache key: equal
// fingerprints plus equal optics plus equal tile inputs imply
// bit-equal results. Solvers that do not implement it are simply not
// cached or batched. Fingerprints are prefixed with the backend's
// registry name, so cache keys and the scheduler's compatibility
// classes carry solver provenance in the same vocabulary as flags,
// wire sessions, and JobSpecs.
type Fingerprinter interface {
	Fingerprint() string
}

// Fingerprint implements Fingerprinter.
func (s *Pixel) Fingerprint() string {
	return fmt.Sprintf("pixel:slope=%g,final=%g,bias=%g,warmup=%d,smooth=%g",
		s.Slope, s.FinalSlope, s.BackgroundBias, s.WarmupIters, s.SmoothWeight)
}

// Fingerprint implements Fingerprinter.
func (s *LevelSet) Fingerprint() string {
	return fmt.Sprintf("levelset:eps=%g,curv=%g,reinit=%d", s.Epsilon, s.Curvature, s.ReinitEvery)
}

// Fingerprint implements Fingerprinter.
func (s *MultiLevel) Fingerprint() string {
	inner := "default"
	if s.Pixel != nil {
		inner = s.Pixel.Fingerprint()
	}
	return fmt.Sprintf("multilevel:levels=%d,coarse=%g,clean=%d,pixel=(%s)",
		s.Levels, s.CoarseFrac, s.CleanRadius, inner)
}

// Fingerprint implements Fingerprinter.
func (s *ADMM) Fingerprint() string {
	return fmt.Sprintf("admm:rho=%g,binary=%g,warmup=%d", s.Rho, s.Binary, s.WarmupIters)
}

// Fingerprint implements Fingerprinter.
func (s *Curvy) Fingerprint() string {
	inner := "default"
	if s.Pixel != nil {
		inner = s.Pixel.Fingerprint()
	}
	return fmt.Sprintf("curvy:curv=%g,rules=(w=%d,s=%d,a=%d),legalize=%d,pixel=(%s)",
		s.CurvWeight, s.Rules.MinWidth, s.Rules.MinSpace, s.Rules.MinArea, s.MaxLegalize, inner)
}

// BatchSolver is a Solver that can optimise several tiles in lockstep,
// sharing the frequency-domain work of each iteration across the whole
// batch (litho.LossGradBatch). Each tile's result must be bit-identical
// to a lone Solve with the same inputs — batching is a throughput
// lever, never a numerics change.
type BatchSolver interface {
	Solver
	// SolveBatch solves tiles i = 0..T-1 from (targets[i], inits[i],
	// ps[i]) and returns per-tile results and errors (outs[i] is nil
	// exactly when errs[i] is non-nil). The lockstep parameters
	// (Params.Lockstep) must agree across the batch; Ctx and Freeze may
	// differ per tile, and a tile whose context cancels drops out of
	// the batch without disturbing the others.
	SolveBatch(targets, inits []*grid.Mat, ps []Params) ([]*grid.Mat, []error)
}

// SolveBatch implements BatchSolver: the Pixel descent loop run in
// lockstep over T tiles, with every iteration's T loss-gradient
// evaluations collapsed into one litho.LossGradBatch call. Per-tile θ,
// Adam state, freeze handling, warmup and annealing are independent,
// so each returned mask is bit-identical to a lone Solve of that tile.
func (s *Pixel) SolveBatch(targets, inits []*grid.Mat, ps []Params) ([]*grid.Mat, []error) {
	return s.solveBatch(targets, inits, ps, nil)
}

// solveBatch is the one descent loop behind Pixel and Curvy. extraGrad,
// when non-nil, may accumulate additional ∂loss/∂M terms into each
// tile's gm after the smoothness regulariser and before the sigmoid
// chain rule.
func (s *Pixel) solveBatch(targets, inits []*grid.Mat, ps []Params, extraGrad func(gm, mask *grid.Mat)) ([]*grid.Mat, []error) {
	T := len(inits)
	outs := make([]*grid.Mat, T)
	errs := make([]error, T)
	failAll := func(err error) ([]*grid.Mat, []error) {
		for i := range errs {
			errs[i] = err
		}
		return outs, errs
	}
	if len(targets) != T || len(ps) != T {
		return failAll(fmt.Errorf("opt: batch size mismatch: %d targets, %d inits, %d params", len(targets), T, len(ps)))
	}
	if T == 0 {
		return outs, errs
	}
	for i := 1; i < T; i++ {
		if ps[i].Lockstep() != ps[0].Lockstep() {
			return failAll(fmt.Errorf("opt: batch member %d has incompatible lockstep params", i))
		}
		if !inits[i].SameShape(inits[0]) {
			return failAll(fmt.Errorf("opt: batch member %d is %dx%d, want %dx%d", i, inits[i].H, inits[i].W, inits[0].H, inits[0].W))
		}
	}

	p0 := ps[0]
	n := len(inits[0].Data)
	bias := s.BackgroundBias
	if bias <= 0 {
		bias = 1e-3
	}
	slopeAt := func(it int) float64 {
		if s.FinalSlope <= s.Slope || p0.Iters <= 1 {
			return s.Slope
		}
		return s.Slope + (s.FinalSlope-s.Slope)*float64(it)/float64(p0.Iters-1)
	}

	type tileState struct {
		idx    int
		p      Params
		target *grid.Mat
		init   *grid.Mat
		theta  []float64
		dTheta []float64
		mask   *grid.Mat
		adam   *Adam
	}
	active := make([]*tileState, 0, T)
	for i := range inits {
		if err := ps[i].validateFor(inits[i]); err != nil {
			errs[i] = err
			continue
		}
		st := &tileState{
			idx: i, p: ps[i], target: targets[i], init: inits[i],
			theta: make([]float64, n), dTheta: make([]float64, n),
			mask: grid.NewMat(inits[i].H, inits[i].W), adam: NewAdam(n),
		}
		for j, v := range inits[i].Data {
			// Lift dead-zero pixels to the background bias so they keep
			// a usable gradient — except frozen pixels, which must
			// reproduce their boundary data exactly.
			if v < bias && (st.p.Freeze == nil || st.p.Freeze.Data[j] < 0.5) {
				v = bias
			}
			st.theta[j] = logit(v, 1e-4) / s.Slope
		}
		active = append(active, st)
	}

	masks := make([]*grid.Mat, 0, T)
	tgts := make([]*grid.Mat, 0, T)
	for it := 0; it < p0.Iters && len(active) > 0; it++ {
		// Drop cancelled tiles before spending the iteration on them;
		// the rest of the batch continues undisturbed.
		live := active[:0]
		for _, st := range active {
			if err := st.p.Interrupted(); err != nil {
				errs[st.idx] = err
				continue
			}
			live = append(live, st)
		}
		active = live
		if len(active) == 0 {
			break
		}
		slope := slopeAt(it)
		masks, tgts = masks[:0], tgts[:0]
		for _, st := range active {
			for j, t := range st.theta {
				st.mask.Data[j] = sigmoidAt(slope * t)
			}
			masks = append(masks, st.mask)
			tgts = append(tgts, st.target)
		}
		_, gms := s.Sim.LossGradBatch(masks, tgts, p0.lossOpts())
		for bi, st := range active {
			gm := gms[bi]
			if s.SmoothWeight > 0 {
				addLaplacian(gm, st.mask, s.SmoothWeight)
			}
			if extraGrad != nil {
				extraGrad(gm, st.mask)
			}
			for j := range st.dTheta {
				m := st.mask.Data[j]
				st.dTheta[j] = gm.Data[j] * slope * m * (1 - m)
			}
			grid.PutMat(gm)
			maskFrozen(st.dTheta, st.p.Freeze)
			lr := p0.LR
			if w := s.WarmupIters; w > 0 && it < w {
				lr *= float64(it+1) / float64(w+1)
			}
			if p0.Plain {
				plainStep(st.theta, st.dTheta, p0.LR)
			} else {
				st.adam.Step(st.theta, st.dTheta, lr)
			}
		}
	}

	finalSlope := slopeAt(p0.Iters - 1)
	if p0.Iters == 0 {
		finalSlope = s.Slope
	}
	for _, st := range active {
		for j, t := range st.theta {
			st.mask.Data[j] = sigmoidAt(finalSlope * t)
		}
		restoreFrozen(st.mask, st.init, st.p.Freeze)
		outs[st.idx] = st.mask
	}
	return outs, errs
}
