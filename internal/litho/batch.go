package litho

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"mgsilt/internal/fft"
	"mgsilt/internal/grid"
	"mgsilt/internal/kernels"
	"mgsilt/internal/parallel"
)

// Fingerprint returns a stable content hash of everything that
// determines this simulator's outputs: both kernel sets (spectra and
// weights, bit-exact) and the resist configuration. Config.Workers is
// excluded — parallelism is bit-identical to serial by contract, so it
// cannot change results. Two simulators with equal fingerprints
// produce equal aerial images and gradients for equal inputs, which is
// what lets the tile cache address results by content.
func (s *Simulator) Fingerprint() string {
	s.fpOnce.Do(func() {
		h := sha256.New()
		buf := make([]byte, 8)
		w64 := func(v uint64) {
			binary.BigEndian.PutUint64(buf, v)
			h.Write(buf)
		}
		f64 := func(v float64) { w64(math.Float64bits(v)) }
		w64(uint64(s.n))
		f64(s.cfg.Threshold)
		f64(s.cfg.SigmoidSteep)
		f64(s.cfg.DoseDelta)
		// The default kernel budget changes outputs when < 1, so it is
		// part of the content identity (per-call budgets are hashed by
		// the tile-cache key instead, see internal/cache.KeyInput).
		f64(canonFidelity(s.cfg.Fidelity))
		hashSet := func(set *kernels.Set) {
			w64(uint64(set.N))
			w64(uint64(set.P))
			f64(set.Defocus)
			w64(uint64(len(set.Kernels)))
			for _, k := range set.Kernels {
				f64(k.Weight)
				w64(uint64(k.Freq.H))
				w64(uint64(k.Freq.W))
				for _, c := range k.Freq.Data {
					f64(real(c))
					f64(imag(c))
				}
			}
		}
		hashSet(s.nominal)
		hashSet(s.defocus)
		s.fp = fmt.Sprintf("litho:%x", h.Sum(nil))
	})
	return s.fp
}

// LossGradBatch evaluates LossGrad for T (mask, target) pairs sharing
// one geometry and one LossOpts, amortising the FFT work: per process
// condition, the k·T per-kernel field spectra of the whole batch go
// through ONE batched transform (fft.Batch2D) in each direction, so the
// two-barrier transform fan-out spans the entire batch.
//
// Results are bit-identical to calling LossGrad per pair: each pair's
// kernel partials are reduced in kernel order by its own accumulators,
// and batching a transform never changes any individual matrix's bits
// (each matrix's rows and columns are transformed independently).
//
// Returned gradients are pooled like LossGrad's (grid.PutMat to
// recycle). Empty input returns empty slices.
func (s *Simulator) LossGradBatch(masks, targets []*grid.Mat, opts LossOpts) ([]float64, []*grid.Mat) {
	if len(masks) != len(targets) {
		panic(fmt.Sprintf("litho: %d masks vs %d targets", len(masks), len(targets)))
	}
	if len(masks) == 0 {
		return nil, nil
	}
	w := s.lossGrad(masks, targets, opts)
	losses := append([]float64(nil), w.losses...)
	grads := append([]*grid.Mat(nil), w.grads...)
	clear(w.grads) // ownership passes to the caller
	w.release()
	return losses, grads
}

// hopkinsWork is the pooled state of one lockstep evaluation over T
// (mask, target) pairs sharing one grid size: the per-pair spectra,
// intensities, ∂L/∂I and adjoint accumulators, the k·T per-kernel
// field buffers (pair i's kernel j at index i·k+j), and the
// per-condition values the fan-out bodies read. Every matrix comes
// from the grid pools and every slice keeps its capacity across uses,
// and the fan-out bodies are bound as method values once per pooled
// item, so a steady-state evaluation allocates nothing.
type hopkinsWork struct {
	s    *Simulator
	size int

	masks, targets []*grid.Mat
	losses         []float64
	grads          []*grid.Mat
	fms            []*grid.CMat // F(mask) per pair
	ints           []*grid.Mat  // intensity per pair
	gs             []*grid.Mat  // ∂L/∂I per pair
	accs           []*grid.CMat // adjoint accumulator per pair
	fields         []*grid.CMat // k per pair

	p      *prepared
	k      int
	dose   float64
	weight float64

	spectrumFn, productFn, intensityFn, resistFn, sourceFn, adjointFn, reduceFn, gradFn func(int)
}

var workPool = sync.Pool{New: func() any {
	w := &hopkinsWork{}
	w.spectrumFn = w.spectrum
	w.productFn = w.product
	w.intensityFn = w.intensity
	w.resistFn = w.resist
	w.sourceFn = w.source
	w.adjointFn = w.adjoint
	w.reduceFn = w.reduce
	w.gradFn = w.grad
	return w
}}

// getWork returns an empty pooled work item for size×size pairs.
func (s *Simulator) getWork(size int) *hopkinsWork {
	w := workPool.Get().(*hopkinsWork)
	w.s, w.size = s, size
	return w
}

// getMats appends n pooled size×size matrices to ms[:0].
func getMats(ms []*grid.Mat, n, size int) []*grid.Mat {
	ms = ms[:0]
	for i := 0; i < n; i++ {
		ms = append(ms, grid.GetMat(size, size))
	}
	return ms
}

// getCMats is getMats for complex matrices.
func getCMats(ms []*grid.CMat, n, size int) []*grid.CMat {
	ms = ms[:0]
	for i := 0; i < n; i++ {
		ms = append(ms, grid.GetCMat(size, size))
	}
	return ms
}

// release returns every pooled matrix still held (entries the caller
// took over must be nil) and the work item itself to their pools.
func (w *hopkinsWork) release() {
	w.putFields()
	grid.PutMats(w.grads)
	grid.PutMats(w.ints)
	grid.PutMats(w.gs)
	grid.PutCMats(w.fms)
	grid.PutCMats(w.accs)
	clear(w.masks)
	clear(w.targets)
	w.masks, w.targets, w.losses, w.grads = w.masks[:0], w.targets[:0], w.losses[:0], w.grads[:0]
	w.fms, w.ints, w.gs, w.accs = w.fms[:0], w.ints[:0], w.gs[:0], w.accs[:0]
	w.s, w.p = nil, nil
	workPool.Put(w)
}

// putFields returns the per-kernel field buffers to the pool.
func (w *hopkinsWork) putFields() {
	grid.PutCMats(w.fields)
	w.fields = w.fields[:0]
}

// lossGrad validates a batch and runs the loss-gradient engine over it,
// returning the work item holding losses and gradients; the caller
// takes what it returns and releases the rest.
func (s *Simulator) lossGrad(masks, targets []*grid.Mat, opts LossOpts) *hopkinsWork {
	size := masks[0].H
	for i, m := range masks {
		if !m.SameShape(targets[i]) {
			panic(fmt.Sprintf("litho: mask %dx%d vs target %dx%d", m.H, m.W, targets[i].H, targets[i].W))
		}
		if m.H != size || m.W != size {
			panic(fmt.Sprintf("litho: batch member %d is %dx%d, want %dx%d", i, m.H, m.W, size, size))
		}
	}
	injectAerial()
	if opts.Stretch < 1 {
		panic("litho: LossOpts.Stretch must be >= 1")
	}
	ks := s.kernelStretch(size, opts.Stretch)
	fidelity := s.effFidelity(opts.Fidelity)

	w := s.getWork(size)
	w.masks = append(w.masks, masks...)
	w.targets = append(w.targets, targets...)
	T := len(masks)
	for range T {
		w.losses = append(w.losses, 0)
	}
	w.grads = getMats(w.grads, T, size)
	for _, g := range w.grads {
		g.Zero()
	}
	w.spectra()
	w.condition(s.Nominal(), ks, fidelity, 1)
	if opts.PVWeight > 0 {
		w.condition(s.Inner(), ks, fidelity, opts.PVWeight)
		w.condition(s.Outer(), ks, fidelity, opts.PVWeight)
	}
	return w
}

// spectra transforms every mask into w.fms (masks are real: half a
// complex transform each).
func (w *hopkinsWork) spectra() {
	T := len(w.masks)
	w.fms = getCMats(w.fms, T, w.size)
	parallel.Do(T, w.s.workersFor(T), w.spectrumFn)
}

func (w *hopkinsWork) spectrum(i int) { fft.ForwardReal2D(w.fms[i], w.masks[i]) }

// forward is the forward half of the Hopkins sum under one prepared
// kernel set: one fan-out builds all k·T field spectra H_j ⊙ F(M_i),
// ONE batched pruned inverse transform turns them into fields A_ij,
// and each pair then reduces its own fields in kernel order into
// w.ints[i] = Σ_j w_j|A_ij|². It leaves the fields in w.fields and
// returns the fan-out width.
func (w *hopkinsWork) forward(p *prepared) int {
	k, T := len(p.freq), len(w.fms)
	limit := w.s.workersFor(k * T)
	kernelsEvaluated.Add(int64(k * T))
	w.p, w.k = p, k
	w.fields = getCMats(w.fields, k*T, w.size)
	parallel.Do(k*T, limit, w.productFn)
	fft.Batch2DInversePruned(w.fields, p.rowLive, limit)
	if len(w.ints) != T {
		w.ints = getMats(w.ints, T, w.size)
	}
	parallel.Do(T, min(limit, T), w.intensityFn)
	return limit
}

func (w *hopkinsWork) product(f int) {
	prodLive(w.fields[f], w.fms[f/w.k], w.p.freq[f%w.k], w.p.rowLive)
}

func (w *hopkinsWork) intensity(i int) {
	in := w.ints[i].Zero()
	for j := 0; j < w.k; j++ {
		w.fields[i*w.k+j].AddAbsSqScaled(in, w.p.weights[j])
	}
}

// condition accumulates weight·∇L_cond into every pair's gradient and
// weight·L_cond into its loss, where L_cond = Σ (Z − Z_t)² with Z the
// sigmoid resist under the given condition.
//
// Derivation: with A_k = F⁻¹(H_k ⊙ F(M)) and I = Σ w_k|A_k|²,
// perturbing the real mask gives δI = Σ 2 w_k Re[conj(A_k)·(h_k ⊗ δM)],
// so with g = ∂L/∂I,
//
//	∇_M L = Σ_k 2 w_k Re[ F⁻¹( H_k(-f) ⊙ F(g ⊙ conj(A_k)) ) ],
//
// where H(-f) is the spectrum of the coordinate-reversed kernel (the
// correlation/adjoint kernel). The per-kernel terms are accumulated in
// the frequency domain so each pair needs only one inverse transform.
func (w *hopkinsWork) condition(cond Condition, kernelStretch int, fidelity, weight float64) {
	p := w.s.preparedFor(cond.Focus, w.size, kernelStretch, fidelity)
	limit := w.forward(p)
	T := len(w.fms)
	w.dose, w.weight = cond.Dose, weight
	if len(w.gs) != T {
		w.gs = getMats(w.gs, T, w.size)
	}
	parallel.Do(T, min(limit, T), w.resistFn)

	// Adjoint pass: q_k = g ⊙ conj(A_k) overwrites each field in place,
	// one batched forward transform covers all k·T, and each product
	// (2w_k·H_k(-f)) ⊙ F(q_k) — the flipped spectra carry the 2w_k
	// factor from preparation — is formed in place. The adjoint spectra
	// are band-limited like the forward ones, so only the rows in
	// p.adjLive of F(q_k) are ever read: the forward batch runs the
	// band-limited columns-first transform (fft.Batch2DForwardBand),
	// whose dead output rows are left mid-transform. That is safe
	// because the product and reduction only touch p.adjRows and
	// prodLive rewrites (or clears) every row on the next use of the
	// pooled buffers.
	parallel.Do(len(w.fields), limit, w.sourceFn)
	fft.Batch2DForwardBand(w.fields, p.adjLive, limit)
	parallel.Do(len(w.fields), limit, w.adjointFn)
	if len(w.accs) != T {
		w.accs = getCMats(w.accs, T, w.size)
	}
	// Each pair reduces its kernels in kernel order into its own
	// accumulator; the accumulators' inverse then gets the full width,
	// so a lone large tile keeps its row and column fan-out.
	parallel.Do(T, min(limit, T), w.reduceFn)
	fft.Batch2DInversePruned(w.accs, p.adjLive, limit)
	parallel.Do(T, min(limit, T), w.gradFn)
	w.putFields()
}

// resist applies the sigmoid resist to pair i's intensity, adds its
// weighted L2 loss and writes ∂L/∂I. Serial per pair: the scalar loss
// accumulation is order-sensitive.
func (w *hopkinsWork) resist(i int) {
	steep, th, dose := w.s.cfg.SigmoidSteep, w.s.cfg.Threshold, w.dose
	target, g := w.targets[i], w.gs[i]
	loss := 0.0
	for j, v := range w.ints[i].Data {
		z := sigmoid(steep * (dose*v - th))
		d := z - target.Data[j]
		loss += d * d
		g.Data[j] = 2 * d * steep * dose * z * (1 - z)
	}
	w.losses[i] += w.weight * loss
}

func (w *hopkinsWork) source(f int) { mulRealConj(w.fields[f], w.gs[f/w.k]) }

func (w *hopkinsWork) adjoint(f int) {
	a, adj := w.fields[f], w.p.adjoint[f%w.k]
	for _, y := range w.p.adjRows {
		ar, jr := a.Row(y), adj.Row(y)
		for x, qv := range ar {
			ar[x] = jr[x] * qv
		}
	}
}

func (w *hopkinsWork) reduce(i int) {
	acc := w.accs[i].Zero()
	for j := 0; j < w.k; j++ {
		t := w.fields[i*w.k+j]
		for _, y := range w.p.adjRows {
			tr, cr := t.Row(y), acc.Row(y)
			for x, tv := range tr {
				cr[x] += tv
			}
		}
	}
}

func (w *hopkinsWork) grad(i int) {
	g, acc := w.grads[i].Data, w.accs[i].Data
	for j := range g {
		g[j] += w.weight * real(acc[j])
	}
}
