package litho

import (
	"fmt"
	"math"
	"testing"

	"mgsilt/internal/fft"
	"mgsilt/internal/grid"
	"mgsilt/internal/kernels"
	"mgsilt/internal/parallel"
)

// The reference Hopkins model the lockstep engine is checked against:
// dense, serial and unpooled, one full complex fft.Forward2D/Inverse2D
// per kernel with no row pruning, kernels taken straight from
// internal/kernels instead of the simulator's prepared cache, and the
// adjoint written in the conjugate-kernel form
//
//	∇_M L = Σ_k 2 w_k Re[ F⁻¹( conj(H_k) ⊙ F(g ⊙ A_k) ) ]
//
// rather than the engine's flipped-kernel form (the two are equal for a
// real mask because Re z = Re conj z).

// refSet returns the kernels the reference evaluates for one focus: the
// set resampled for the grid and truncated to the budget.
func refSet(s *Simulator, focus Focus, size, pixelStretch int, fidelity float64) *kernels.Set {
	src := s.nominal
	if focus == FocusDefocus {
		src = s.defocus
	}
	set := src.Resampled(size, size*pixelStretch/s.n)
	if fidelity > 0 && fidelity < 1 {
		set = set.Truncate(fidelity)
	}
	return set
}

// refFields returns each kernel's corner-layout spectrum and coherent
// field A_k = F⁻¹(H_k ⊙ F(M)).
func refFields(set *kernels.Set, mask *grid.Mat) (spectra, fields []*grid.CMat) {
	fm := grid.NewCMatFromReal(mask)
	fft.Forward2D(fm)
	for _, k := range set.Kernels {
		h := fft.ToCorner(k.Freq)
		a := grid.NewCMat(mask.H, mask.W).ProdOf(h, fm)
		fft.Inverse2D(a)
		spectra = append(spectra, h)
		fields = append(fields, a)
	}
	return spectra, fields
}

func refAerial(set *kernels.Set, mask *grid.Mat) *grid.Mat {
	_, fields := refFields(set, mask)
	intensity := grid.NewMat(mask.H, mask.W)
	for i, a := range fields {
		for j, v := range a.Data {
			intensity.Data[j] += set.Kernels[i].Weight * (real(v)*real(v) + imag(v)*imag(v))
		}
	}
	return intensity
}

func refLossGrad(s *Simulator, mask, target *grid.Mat, opts LossOpts, fidelity float64) (float64, *grid.Mat) {
	cfg := s.Config()
	loss := 0.0
	grad := grid.NewMat(mask.H, mask.W)
	conds := []Condition{s.Nominal()}
	weights := []float64{1}
	if opts.PVWeight > 0 {
		conds = append(conds, s.Inner(), s.Outer())
		weights = append(weights, opts.PVWeight, opts.PVWeight)
	}
	for c, cond := range conds {
		set := refSet(s, cond.Focus, mask.H, opts.Stretch, fidelity)
		intensity := refAerial(set, mask)
		g := grid.NewMat(mask.H, mask.W)
		for j, v := range intensity.Data {
			z := 1 / (1 + math.Exp(-cfg.SigmoidSteep*(cond.Dose*v-cfg.Threshold)))
			d := z - target.Data[j]
			loss += weights[c] * d * d
			g.Data[j] = 2 * d * cfg.SigmoidSteep * cond.Dose * z * (1 - z)
		}
		spectra, fields := refFields(set, mask)
		for k, a := range fields {
			q := grid.NewCMat(mask.H, mask.W)
			for j, v := range a.Data {
				q.Data[j] = complex(g.Data[j], 0) * v
			}
			fft.Forward2D(q)
			q.MulElem(spectra[k].Clone().Conj())
			fft.Inverse2D(q)
			for j, v := range q.Data {
				grad.Data[j] += weights[c] * 2 * set.Kernels[k].Weight * real(v)
			}
		}
	}
	return loss, grad
}

// relErr returns max|got − want| / max|want|.
func relErr(got, want *grid.Mat) float64 {
	diff := 0.0
	for i, v := range got.Data {
		diff = math.Max(diff, math.Abs(v-want.Data[i]))
	}
	return diff / want.MaxAbs()
}

// TestHopkinsMatchesReference checks Aerial and LossGrad against the
// reference model on a random grey mask, on the native and the coarse
// grid, with and without the process-window corners, at full and
// truncated fidelity, serial and fanned out.
func TestHopkinsMatchesReference(t *testing.T) {
	prev := parallel.SetWorkers(2)
	defer parallel.SetWorkers(prev)
	kc := kernels.DefaultConfig(testN)
	nom := kernels.MustGenerate(kc)
	def, err := kernels.Defocused(kc, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	mask := randomMask(testN, 11)
	target := centredSquare(testN, 24)
	const tol = 1e-9

	for _, workers := range []int{1, 2} {
		for _, fidelity := range []float64{1, 0.75} {
			cfg := DefaultConfig()
			cfg.Workers, cfg.Fidelity = workers, fidelity
			sim, err := New(nom, def, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, stretch := range []int{1, 2} {
				name := fmt.Sprintf("workers=%d/fidelity=%g/stretch=%d", workers, fidelity, stretch)
				aerial := sim.AerialScaled(mask, stretch, sim.Inner())
				if stretch == 1 {
					aerial = sim.Aerial(mask, sim.Inner())
				}
				want := refAerial(refSet(sim, FocusDefocus, testN, stretch, fidelity), mask)
				if e := relErr(aerial, want); e > tol {
					t.Errorf("%s: Aerial relative error %g", name, e)
				}
				for _, pv := range []float64{0, 0.5} {
					opts := LossOpts{Stretch: stretch, PVWeight: pv}
					loss, grad := sim.LossGrad(mask, target, opts)
					wantLoss, wantGrad := refLossGrad(sim, mask, target, opts, fidelity)
					if e := math.Abs(loss-wantLoss) / wantLoss; e > tol {
						t.Errorf("%s/pv=%g: loss %v vs reference %v (relative error %g)", name, pv, loss, wantLoss, e)
					}
					if e := relErr(grad, wantGrad); e > tol {
						t.Errorf("%s/pv=%g: gradient relative error %g", name, pv, e)
					}
				}
			}
		}
	}
}
