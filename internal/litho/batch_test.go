package litho

import (
	"math/rand"
	"testing"

	"mgsilt/internal/grid"
	"mgsilt/internal/kernels"
)

// greyMask returns a random continuous mask, the shape LossGrad sees
// mid-optimisation.
func greyMask(rng *rand.Rand, n int) *grid.Mat {
	m := grid.NewMat(n, n)
	for i := range m.Data {
		m.Data[i] = rng.Float64()
	}
	return m
}

// LossGradBatch must reproduce per-pair LossGrad bit for bit — the
// contract that lets the batch scheduler and the tile cache compose
// with the determinism guarantees.
func TestLossGradBatchBitIdentical(t *testing.T) {
	sim := testSim(t)
	rng := rand.New(rand.NewSource(42))

	for _, tc := range []struct {
		name string
		opts LossOpts
	}{
		{"nominal", LossOpts{Stretch: 1}},
		{"stretch", LossOpts{Stretch: 2}},
		{"pvband", LossOpts{Stretch: 1, PVWeight: 0.4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const T = 5
			masks := make([]*grid.Mat, T)
			targets := make([]*grid.Mat, T)
			for i := range masks {
				masks[i] = greyMask(rng, testN)
				targets[i] = centredSquare(testN, 10+4*i)
			}

			wantLoss := make([]float64, T)
			wantGrad := make([]*grid.Mat, T)
			for i := range masks {
				wantLoss[i], wantGrad[i] = sim.LossGrad(masks[i], targets[i], tc.opts)
			}

			gotLoss, gotGrad := sim.LossGradBatch(masks, targets, tc.opts)
			for i := range masks {
				if gotLoss[i] != wantLoss[i] {
					t.Errorf("pair %d: loss %v != %v", i, gotLoss[i], wantLoss[i])
				}
				if !gotGrad[i].Equal(wantGrad[i]) {
					t.Errorf("pair %d: gradient differs", i)
				}
			}
		})
	}
}

// A batch of one must equal the lone call exactly, the empty batch
// must be a no-op, and a malformed batch must panic.
func TestLossGradBatchEdges(t *testing.T) {
	sim := testSim(t)
	rng := rand.New(rand.NewSource(7))
	mask, target := greyMask(rng, testN), centredSquare(testN, 16)
	opts := LossOpts{Stretch: 1}

	wantLoss, wantGrad := sim.LossGrad(mask, target, opts)
	gotLoss, gotGrad := sim.LossGradBatch([]*grid.Mat{mask}, []*grid.Mat{target}, opts)
	if gotLoss[0] != wantLoss || !gotGrad[0].Equal(wantGrad) {
		t.Fatalf("batch of one differs from lone LossGrad")
	}

	losses, grads := sim.LossGradBatch(nil, nil, opts)
	if len(losses) != 0 || len(grads) != 0 {
		t.Fatalf("empty batch returned %d/%d results", len(losses), len(grads))
	}

	small := grid.NewMat(testN/2, testN/2)
	for name, run := range map[string]func(){
		"count":    func() { sim.LossGradBatch([]*grid.Mat{mask}, nil, opts) },
		"geometry": func() { sim.LossGradBatch([]*grid.Mat{mask, small}, []*grid.Mat{target, small}, opts) },
		"stretch":  func() { sim.LossGrad(mask, target, LossOpts{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			run()
		}()
	}
}

// Fingerprint must be stable across calls and distinguish different
// optics and resist configurations.
func TestFingerprint(t *testing.T) {
	sim := testSim(t)
	fp := sim.Fingerprint()
	if fp == "" || fp != sim.Fingerprint() {
		t.Fatalf("fingerprint not stable: %q", fp)
	}
	if testSim(t).Fingerprint() != fp {
		t.Fatalf("identical configuration produced a different fingerprint")
	}
	// NewDefault must build exactly these optics: on-disk tile-cache
	// keys hash the fingerprint.
	std, err := NewDefault(testN)
	if err != nil {
		t.Fatal(err)
	}
	if std.Fingerprint() != fp {
		t.Fatalf("NewDefault optics differ from the explicit construction")
	}
	if _, err := NewDefault(0); err == nil {
		t.Fatalf("NewDefault accepted grid 0")
	}

	kc := kernels.DefaultConfig(testN)
	nom := kernels.MustGenerate(kc)
	def, err := kernels.Defocused(kc, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Threshold += 0.01
	other, err := New(nom, def, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if other.Fingerprint() == fp {
		t.Fatalf("different resist config produced the same fingerprint")
	}
}
