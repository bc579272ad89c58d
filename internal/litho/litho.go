// Package litho implements the forward lithography model of the paper
// (Section 2.1) and its adjoint, which together drive every ILT solver
// in this repository:
//
//   - Aerial image by the Hopkins/SOCS sum of Eq. (1), evaluated with
//     FFTs per Eq. (2).
//   - Large-area simulation on sN×sN layouts via fractional-frequency
//     kernel resampling, Eq. (3).
//   - Coarse-grid simulation of factor-s downsampled masks, Eq. (9).
//   - A constant-threshold photoresist for inspection (Eq. 4) and a
//     sigmoid-relaxed resist for gradient-based optimisation.
//   - Process corners for the PVBand metric (Definition 3): defocus
//     with -2% dose ("inner") and nominal focus with +2% dose
//     ("outer").
//
// Every evaluation runs one lockstep engine over a batch of (mask,
// target) pairs (a single Aerial or LossGrad call is a batch of one).
// The adjoint gradient of the resist L2 loss is computed entirely in
// the frequency domain; see hopkinsWork.condition for the derivation.
package litho

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"mgsilt/internal/fault"
	"mgsilt/internal/fft"
	"mgsilt/internal/grid"
	"mgsilt/internal/kernels"
	"mgsilt/internal/parallel"
)

// Focus selects between the nominal-focus and defocused kernel sets.
type Focus int

const (
	FocusNominal Focus = iota
	FocusDefocus
)

// Condition is a process condition: a focus setting plus a dose factor
// that scales the aerial intensity.
type Condition struct {
	Focus Focus
	Dose  float64
}

// Config holds the resist and process-window parameters.
type Config struct {
	// Threshold is the constant resist threshold of Eq. (4). The
	// ICCAD-2013 value 0.225 places the printed edge of a large
	// feature at its drawn edge (field amplitude 0.5 → intensity 0.25).
	Threshold float64
	// SigmoidSteep is the steepness of the sigmoid resist relaxation
	// used during optimisation.
	SigmoidSteep float64
	// DoseDelta is the ± dose variation of the process window (0.02
	// in the paper).
	DoseDelta float64
	// Workers caps the per-evaluation kernel-loop parallelism of this
	// simulator: Aerial and LossGrad fan the independent per-kernel
	// convolutions out over at most Workers goroutines drawn from the
	// shared internal/parallel pool. 0 (the default) uses the pool
	// width (GOMAXPROCS or ILT_WORKERS); 1 runs every fan-out on the
	// calling goroutine. Results are bit-identical for every value —
	// each pair reduces its kernel partials in kernel order — so this
	// is a pure performance knob.
	Workers int
	// Fidelity is the default kernel energy budget of every evaluation:
	// each Hopkins sum runs only the energy-ranked kernel prefix
	// covering this weight fraction (kernels.Set.Truncate semantics).
	// 0 or 1 evaluates the full set — bit-identical to a simulator
	// without the knob. Per-call budgets (LossOpts.Fidelity) override
	// this default. Values outside [0, 1] are rejected by New.
	Fidelity float64
}

// DefaultConfig returns the resist parameters used by the experiment
// suite.
func DefaultConfig() Config {
	return Config{Threshold: 0.225, SigmoidSteep: 40, DoseDelta: 0.02}
}

// Simulator evaluates the forward model and its adjoint for one pair
// of kernel sets. It is safe for concurrent use; resampled kernel sets
// are cached per (focus, grid size, stretch).
type Simulator struct {
	n   int
	cfg Config

	nominal *kernels.Set
	defocus *kernels.Set

	fpOnce sync.Once
	fp     string

	mu    sync.Mutex
	cache map[prepKey]*prepared
}

type prepKey struct {
	focus    Focus
	size     int
	stretch  int
	fidelity float64 // canonical: 1 means the full set
}

// prepared holds corner-layout kernel spectra ready for FFT pipelines,
// plus the frequency-flipped versions used by the adjoint pass,
// pre-scaled by their 2·w_k gradient weight so the adjoint inner loop
// performs one complex multiply per element instead of two.
//
// It also carries the pupil row-support masks that drive the pruned
// inverse transforms: the kernel spectra are band-limited, so in corner
// layout only the rows intersecting the (shifted) pupil disk are ever
// non-zero. rowLive is the union support of the forward spectra,
// adjLive of the flipped adjoint spectra; both are detected at the bit
// level (a row is dead only when every entry is exactly +0), which is
// what fft.Batch2DInversePruned's exactness contract requires.
type prepared struct {
	weights []float64
	freq    []*grid.CMat // H(f), corner layout
	adjoint []*grid.CMat // 2·w_k·H(-f), corner layout
	rowLive []bool       // union row support of freq
	adjLive []bool       // union row support of adjoint
	adjRows []int        // indices of the true entries of adjLive
	// dropped is the kernel weight removed by fidelity truncation
	// relative to the full set (0 for a full-fidelity prepared).
	dropped float64
}

// New builds a Simulator from a nominal and a defocused kernel set,
// which must share the same native grid size.
func New(nominal, defocus *kernels.Set, cfg Config) (*Simulator, error) {
	if nominal == nil || defocus == nil {
		return nil, fmt.Errorf("litho: both kernel sets are required")
	}
	if nominal.N != defocus.N {
		return nil, fmt.Errorf("litho: kernel grids differ: %d vs %d", nominal.N, defocus.N)
	}
	if cfg.Threshold <= 0 || cfg.Threshold >= 1 {
		return nil, fmt.Errorf("litho: threshold %v out of (0,1)", cfg.Threshold)
	}
	if cfg.SigmoidSteep <= 0 {
		return nil, fmt.Errorf("litho: sigmoid steepness must be positive")
	}
	if cfg.DoseDelta < 0 || cfg.DoseDelta >= 1 {
		return nil, fmt.Errorf("litho: dose delta %v out of [0,1)", cfg.DoseDelta)
	}
	if !(cfg.Fidelity >= 0 && cfg.Fidelity <= 1) {
		return nil, fmt.Errorf("litho: fidelity %v out of [0,1]", cfg.Fidelity)
	}
	return &Simulator{
		n:       nominal.N,
		cfg:     cfg,
		nominal: nominal,
		defocus: defocus,
		cache:   map[prepKey]*prepared{},
	}, nil
}

// NewDefault builds the standard optics for native grid n: the default
// kernel configuration, its 0.8-defocus twin for the PV-band corners
// and the default resist. Every site that must agree on optics (the
// CLIs, the job server, shard workers and the bench harness) builds
// them here.
func NewDefault(n int) (*Simulator, error) {
	kc := kernels.DefaultConfig(n)
	nom, err := kernels.Generate(kc)
	if err != nil {
		return nil, err
	}
	def, err := kernels.Defocused(kc, 0.8)
	if err != nil {
		return nil, err
	}
	return New(nom, def, DefaultConfig())
}

// N returns the native simulation grid size.
func (s *Simulator) N() int { return s.n }

// Config returns the resist configuration.
func (s *Simulator) Config() Config { return s.cfg }

// Nominal returns the nominal process condition.
func (s *Simulator) Nominal() Condition { return Condition{FocusNominal, 1} }

// Inner returns the inner process-window corner of Definition 3:
// defocus with -DoseDelta dose.
func (s *Simulator) Inner() Condition { return Condition{FocusDefocus, 1 - s.cfg.DoseDelta} }

// Outer returns the outer process-window corner of Definition 3:
// nominal focus with +DoseDelta dose.
func (s *Simulator) Outer() Condition { return Condition{FocusNominal, 1 + s.cfg.DoseDelta} }

// canonFidelity maps a kernel energy budget onto the canonical cache
// key: anything outside (0,1) — NaN included, so a hostile budget
// cannot mint a fresh cache entry per call — means "evaluate the full
// set".
func canonFidelity(f float64) float64 {
	if !(f > 0 && f < 1) {
		return 1
	}
	return f
}

func (s *Simulator) preparedFor(focus Focus, size, stretch int, fidelity float64) *prepared {
	fidelity = canonFidelity(fidelity)
	key := prepKey{focus, size, stretch, fidelity}
	s.mu.Lock()
	defer s.mu.Unlock()
	if p, ok := s.cache[key]; ok {
		return p
	}
	fullKey := prepKey{focus, size, stretch, 1}
	full, ok := s.cache[fullKey]
	if !ok {
		src := s.nominal
		if focus == FocusDefocus {
			src = s.defocus
		}
		rs := src.Resampled(size, stretch)
		full = &prepared{}
		for _, k := range rs.Kernels {
			// Resampled kernels are freshly allocated, so the layout swap
			// can run in place instead of copying.
			corner := fft.SwapQuadrants(k.Freq)
			full.weights = append(full.weights, k.Weight)
			full.freq = append(full.freq, corner)
			// Fold the 2·w_k adjoint weight into the flipped spectrum once
			// at preparation time. The products are the same bits the inner
			// loop would produce: complex multiplication is commutative at
			// the floating-point level.
			full.adjoint = append(full.adjoint, fft.FlipFreq(corner).Scale(complex(2*k.Weight, 0)))
		}
		full.computeSupport()
		s.cache[fullKey] = full
	}
	if fidelity == 1 {
		return full
	}
	p := full.truncate(fidelity)
	s.cache[key] = p
	return p
}

// computeSupport derives the row-support masks from the spectra.
func (p *prepared) computeSupport() {
	p.rowLive = unionRowSupport(p.freq)
	p.adjLive = unionRowSupport(p.adjoint)
	p.adjRows = p.adjRows[:0]
	for y, live := range p.adjLive {
		if live {
			p.adjRows = append(p.adjRows, y)
		}
	}
}

// unionRowSupport marks every row holding a non-(+0) entry in any of
// the matrices. The test is at the bit level: an entry whose real or
// imaginary bits differ from +0 makes the row live, so dead rows are
// guaranteed to be exactly +0 — the fft pruned-transform contract.
func unionRowSupport(ms []*grid.CMat) []bool {
	if len(ms) == 0 {
		return nil
	}
	live := make([]bool, ms[0].H)
	for _, m := range ms {
		for y := 0; y < m.H; y++ {
			if live[y] {
				continue
			}
			for _, v := range m.Row(y) {
				if math.Float64bits(real(v)) != 0 || math.Float64bits(imag(v)) != 0 {
					live[y] = true
					break
				}
			}
		}
	}
	return live
}

// truncate builds the energy-ranked subset view of a full prepared set
// covering the given weight fraction: the retained kernels' spectra are
// shared (no copies), ordered by descending weight — the canonical
// truncation order of kernels.Set.Truncate — and the row-support masks
// are recomputed for the retained subset.
func (p *prepared) truncate(fidelity float64) *prepared {
	order := kernels.EnergyOrder(p.weights)
	m := kernels.RetainCount(p.weights, order, fidelity)
	if m >= len(p.weights) {
		return p
	}
	sub := &prepared{
		weights: make([]float64, m),
		freq:    make([]*grid.CMat, m),
		adjoint: make([]*grid.CMat, m),
	}
	for i := 0; i < m; i++ {
		idx := order[i]
		sub.weights[i] = p.weights[idx]
		sub.freq[i] = p.freq[idx]
		sub.adjoint[i] = p.adjoint[idx]
	}
	for _, idx := range order[m:] {
		sub.dropped += p.weights[idx]
	}
	sub.computeSupport()
	return sub
}

// checkMask validates the geometry of a full-resolution mask: square,
// power-of-two multiple of N.
func (s *Simulator) checkMask(mask *grid.Mat) {
	if mask.H != mask.W {
		panic(fmt.Sprintf("litho: mask must be square, got %dx%d", mask.H, mask.W))
	}
	if mask.H%s.n != 0 || !fft.IsPow2(mask.H/s.n) {
		panic(fmt.Sprintf("litho: mask size %d is not a power-of-two multiple of N=%d", mask.H, s.n))
	}
}

// kernelStretch converts grid size plus pixel stretch into the kernel
// resampling factor of fft.ResampleCentered. A mask of size G whose
// pixels each span p fine pixels covers G·p fine pixels, so frequency
// bin u corresponds to u/(G·p) cycles per fine pixel, which sits at
// index u·N/(G·p) of the native kernel grid: the kernels must be
// stretched by G·p/N. This unifies Eq. (3) (G = sN, p = 1 → s) and
// Eq. (9) (G = N, p = s → s), and covers the sub-native grids used by
// the multi-level solver (G = N/2, p = 2 → 1).
func (s *Simulator) kernelStretch(size, pixelStretch int) int {
	t := size * pixelStretch
	if t%s.n != 0 || t/s.n < 1 {
		panic(fmt.Sprintf("litho: grid %d with stretch %d does not cover a multiple of N=%d", size, pixelStretch, s.n))
	}
	return t / s.n
}

// Aerial computes the aerial image of a full-resolution mask under the
// given condition's focus. The mask must be sN×sN for power-of-two s;
// larger-than-native masks use the Eq. (3) resampled kernels. Dose is
// not applied here — it scales intensity at the resist (see Wafer).
func (s *Simulator) Aerial(mask *grid.Mat, cond Condition) *grid.Mat {
	s.checkMask(mask)
	return s.aerial(mask, 1, cond.Focus)
}

// AerialScaled computes the coarse-grid aerial image of Eq. (9): mask
// is a factor-`stretch` downsampled representation (each mask pixel
// spans stretch fine pixels), simulated with stretched kernels on the
// mask's own grid.
func (s *Simulator) AerialScaled(mask *grid.Mat, stretch int, cond Condition) *grid.Mat {
	if mask.H != mask.W || !fft.IsPow2(mask.H) {
		panic(fmt.Sprintf("litho: scaled mask must be square power-of-two, got %dx%d", mask.H, mask.W))
	}
	if stretch < 1 {
		panic("litho: stretch must be >= 1")
	}
	return s.aerial(mask, stretch, cond.Focus)
}

// workersFor resolves the kernel-loop parallelism for a k-kernel
// evaluation: Config.Workers (0 → the shared pool width) capped at k.
func (s *Simulator) workersFor(k int) int {
	w := s.cfg.Workers
	if w <= 0 {
		w = parallel.Workers()
	}
	if w > k {
		w = k
	}
	if w < 1 {
		w = 1
	}
	return w
}

// aerialCalls sequences aerial evaluations for the litho.aerial fault
// site. The key is a call-sequence number, so under a process-global
// injector this site is deterministic for serial runs but only
// statistically reproducible for concurrent ones (evaluation order
// depends on scheduling); schedule-exact chaos tests should inject at
// the device sites instead.
var aerialCalls atomic.Int64

// injectAerial is the litho.aerial chaos site, shared by every entry
// point that evaluates the Hopkins sum (plain aerial images and the
// LossGrad solver path). The litho API is pure (no error returns), so
// an injected failure is thrown as a fault.Panic; callers running
// inside a device job have it recovered and retried at the job
// boundary, and the core flows convert panics escaping their own
// metric evaluations into ordinary errors. Injected latency is
// meaningless here (there is no timeline to charge) and ignored.
func injectAerial() {
	if !fault.Enabled() {
		return
	}
	if f := fault.At(fault.SiteLithoAerial, fault.Key{Unit: aerialCalls.Add(1)}); f.Err != nil {
		panic(fault.Panic{Err: f.Err})
	}
}

func (s *Simulator) aerial(mask *grid.Mat, pixelStretch int, focus Focus) *grid.Mat {
	injectAerial()
	p := s.preparedFor(focus, mask.H, s.kernelStretch(mask.H, pixelStretch), s.cfg.Fidelity)
	w := s.getWork(mask.H)
	w.masks = append(w.masks, mask)
	w.spectra()
	w.forward(p)
	intensity := w.ints[0]
	w.ints[0] = nil // ownership passes to the caller
	w.release()
	return intensity
}

// kernelsEvaluated counts every coherent kernel run through a Hopkins
// sum since process start — the denominator of the progressive-fidelity
// savings story, exported to the service /metrics endpoint as
// ilt_kernels_evaluated_total.
var kernelsEvaluated atomic.Int64

// KernelsEvaluatedTotal returns the process-wide count of per-kernel
// Hopkins evaluations (one unit = one kernel in one condition pass).
func KernelsEvaluatedTotal() int64 { return kernelsEvaluated.Load() }

// prodLive writes dst = a ⊙ b on the live rows and zero-fills the dead
// rows. The products on live rows are the same complex multiplications
// ProdOf performs; the dead rows of the product are known zero because
// b's dead rows are zero, but dst is a pooled buffer carrying stale
// bits, so they are explicitly reset to +0 — exactly the dead-row
// contract fft.Batch2DInversePruned requires.
func prodLive(dst, a, b *grid.CMat, live []bool) {
	for y := 0; y < dst.H; y++ {
		dr := dst.Row(y)
		if !live[y] {
			clear(dr)
			continue
		}
		ar, br := a.Row(y), b.Row(y)
		for x, av := range ar {
			dr[x] = av * br[x]
		}
	}
}

// PrintResist thresholds an aerial image into a binary wafer image at
// the given dose: Z = 1 where dose·I > threshold.
func (s *Simulator) PrintResist(aerial *grid.Mat, dose float64) *grid.Mat {
	return aerial.Binarize(s.cfg.Threshold / dose)
}

// Wafer runs the full mask→wafer pipeline of Eq. (4) at full
// resolution: aerial image followed by the constant-threshold resist.
func (s *Simulator) Wafer(mask *grid.Mat, cond Condition) *grid.Mat {
	return s.PrintResist(s.Aerial(mask, cond), cond.Dose)
}

// WaferScaled is Wafer for coarse-grid masks (see AerialScaled).
func (s *Simulator) WaferScaled(mask *grid.Mat, stretch int, cond Condition) *grid.Mat {
	return s.PrintResist(s.AerialScaled(mask, stretch, cond), cond.Dose)
}

// SigmoidResist applies the relaxed resist to an aerial image:
// Z = σ(steep·(dose·I − threshold)).
func (s *Simulator) SigmoidResist(aerial *grid.Mat, dose float64) *grid.Mat {
	out := grid.NewMat(aerial.H, aerial.W)
	steep := s.cfg.SigmoidSteep
	th := s.cfg.Threshold
	for i, v := range aerial.Data {
		out.Data[i] = sigmoid(steep * (dose*v - th))
	}
	return out
}

func sigmoid(x float64) float64 {
	// Guard both tails to keep exp from overflowing.
	switch {
	case x > 40:
		return 1
	case x < -40:
		return 0
	}
	return 1 / (1 + math.Exp(-x))
}

// LossOpts configures LossGrad.
type LossOpts struct {
	// Stretch is the pixel stretch factor: 1 for full-resolution
	// masks whose size equals their area, s for coarse-grid masks
	// downsampled by s (Eq. 9).
	Stretch int
	// PVWeight, when positive, adds the process-window corners to the
	// loss: L = L2(nominal) + PVWeight·(L2(inner) + L2(outer)), the
	// standard robust-ILT objective.
	PVWeight float64
	// Fidelity is the per-call kernel energy budget: the evaluation
	// runs only the energy-ranked kernel prefix covering this weight
	// fraction. 0 defers to Config.Fidelity; 0 there too (or 1 here)
	// evaluates the full set, bit-identical to a build without the
	// knob. The progressive schedule (core.FidelitySchedule) drives
	// this per stage.
	Fidelity float64
}

// LossGrad evaluates the sigmoid-resist L2 loss against target and its
// gradient with respect to the (continuous, full-range) mask pixels.
// mask and target must have the same square power-of-two shape.
//
// The returned gradient is drawn from the grid pool; callers that
// evaluate in a loop may hand it back with grid.PutMat once consumed
// to keep the optimisation steady state allocation-free (holding on to
// it is equally valid — ownership transfers to the caller). It is
// LossGradBatch for a batch of one, without the result slices.
func (s *Simulator) LossGrad(mask, target *grid.Mat, opts LossOpts) (float64, *grid.Mat) {
	w := s.lossGrad([]*grid.Mat{mask}, []*grid.Mat{target}, opts)
	loss, grad := w.losses[0], w.grads[0]
	w.grads[0] = nil // ownership passes to the caller
	w.release()
	return loss, grad
}

// effFidelity resolves a per-call budget against the simulator default.
func (s *Simulator) effFidelity(opt float64) float64 {
	if opt == 0 {
		return canonFidelity(s.cfg.Fidelity)
	}
	return canonFidelity(opt)
}

// mulRealConj sets a = g ⊙ conj(a) element-wise for real g — the
// adjoint source term q_k = g ⊙ conj(A_k) built in place over the
// field buffer. Written as two real multiplies per element instead of
// a full complex product against complex(g, 0).
func mulRealConj(a *grid.CMat, g *grid.Mat) {
	gd := g.Data
	for j, av := range a.Data {
		gv := gd[j]
		a.Data[j] = complex(gv*real(av), -(gv * imag(av)))
	}
}
