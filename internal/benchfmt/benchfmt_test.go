package benchfmt

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mgsilt/internal/report"
)

// sample builds a comparable two-method document.
func sample() *Doc {
	return &Doc{
		GeneratedAt: "2026-01-01T00:00:00Z",
		CalibNS:     20_000_000, // 20ms reference
		Provenance: map[string]string{
			"scale": "small", "n": "64", "clip": "128", "cases": "3", "iters": "40",
			"workers": "4", "kernels": "abbe:n=64",
		},
		Experiments: []Experiment{{
			Name: "table1",
			Methods: []Method{
				{Name: "GLS-ILT", Metrics: report.Metrics{L2: 900, PVBand: 500, Stitch: 40, TATSec: 2.0}},
				{Name: "Ours", Metrics: report.Metrics{L2: 700, PVBand: 450, Stitch: 10, TATSec: 1.0}},
			},
			Headers: []string{"case"},
			Rows:    [][]string{{"c1"}},
		}},
	}
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	d := sample()
	if err := d.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Provenance, d.Provenance) || got.CalibNS != d.CalibNS {
		t.Fatalf("provenance lost in round trip: %+v", got)
	}
	if len(got.Experiments) != 1 || len(got.Experiments[0].Methods) != 2 {
		t.Fatalf("experiments lost in round trip: %+v", got.Experiments)
	}
	if got.Experiments[0].Methods[1].Metrics.TATSec != 1.0 {
		t.Fatalf("metrics lost in round trip")
	}
}

func TestCompareIdenticalPasses(t *testing.T) {
	res, err := Compare(sample(), sample(), CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("identical docs flagged: %v", res.Regressions)
	}
	if res.Checked != 8 { // 2 methods x (3 quality + 1 TAT)
		t.Fatalf("checked %d comparisons, want 8", res.Checked)
	}
}

// TestCompareSyntheticSlowdownFails is the acceptance check for the CI
// gate: a synthetic 2x TAT slowdown must trip the >10% threshold.
func TestCompareSyntheticSlowdownFails(t *testing.T) {
	cur := sample()
	for i := range cur.Experiments[0].Methods {
		cur.Experiments[0].Methods[i].Metrics.TATSec *= 2
	}
	res, err := Compare(sample(), cur, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatal("2x slowdown passed the gate")
	}
	if len(res.Regressions) != 2 {
		t.Fatalf("want 2 TAT regressions, got %v", res.Regressions)
	}
	for _, f := range res.Regressions {
		if f.Metric != "TAT(norm)" {
			t.Fatalf("unexpected metric flagged: %v", f)
		}
		if math.Abs(f.Rel-1.0) > 1e-9 {
			t.Fatalf("relative growth %v, want +100%%", f.Rel)
		}
	}
}

func TestCompareWithinThresholdPasses(t *testing.T) {
	cur := sample()
	cur.Experiments[0].Methods[1].Metrics.TATSec *= 1.05 // +5% < 10%
	res, err := Compare(sample(), cur, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("+5%% TAT tripped the 10%% gate: %v", res.Regressions)
	}
}

func TestCompareCalibrationNormalises(t *testing.T) {
	// Current host is 2x slower (calibration doubles) and TATs double:
	// normalised TAT is unchanged, gate passes.
	cur := sample()
	cur.CalibNS *= 2
	for i := range cur.Experiments[0].Methods {
		cur.Experiments[0].Methods[i].Metrics.TATSec *= 2
	}
	res, err := Compare(sample(), cur, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("calibration failed to normalise host speed: %v", res.Regressions)
	}
	// Absolute mode ignores calibration and fails.
	res, err = Compare(sample(), cur, CompareOptions{AbsoluteTAT: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatal("absolute mode ignored a 2x raw slowdown")
	}
}

func TestCompareQualityRegressionFails(t *testing.T) {
	cur := sample()
	cur.Experiments[0].Methods[1].Metrics.Stitch *= 1.001 // any growth
	res, err := Compare(sample(), cur, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatal("stitch-loss regression passed the gate")
	}
	if f := res.Regressions[0]; f.Metric != "Stitch" || f.Method != "Ours" {
		t.Fatalf("wrong finding: %v", f)
	}
	// Improvements never trip the gate.
	cur = sample()
	cur.Experiments[0].Methods[1].Metrics.L2 *= 0.5
	res, err = Compare(sample(), cur, CompareOptions{})
	if err != nil || !res.OK() {
		t.Fatalf("improvement flagged: %v %v", res, err)
	}
}

// TestCompareRefusesIncomparable: a mismatch on any provenance key,
// including one only the current document carries, refuses the
// comparison with an error naming the key.
func TestCompareRefusesIncomparable(t *testing.T) {
	for key, v := range map[string]string{
		"scale": "full", "n": "128", "clip": "256", "cases": "20", "iters": "100",
		"kernels": "abbe:n=128", "workers": "1", "shard_count": "2", "solver": "admm",
		"extra": "1",
	} {
		cur := sample()
		cur.Provenance[key] = v
		_, err := Compare(sample(), cur, CompareOptions{})
		if err == nil {
			t.Fatalf("%s mismatch accepted", key)
		}
		if want := "incomparable runs: " + key + " differs"; !strings.Contains(err.Error(), want) {
			t.Fatalf("%s mismatch reported as: %v", key, err)
		}
	}
}

func TestCompareMissingMethodErrors(t *testing.T) {
	cur := sample()
	cur.Experiments[0].Methods = cur.Experiments[0].Methods[:1]
	if _, err := Compare(sample(), cur, CompareOptions{}); err == nil {
		t.Fatal("missing method accepted")
	}
	cur = sample()
	cur.Experiments = nil
	if _, err := Compare(sample(), cur, CompareOptions{}); err == nil {
		t.Fatal("missing experiment accepted")
	}
}

// TestLossGradAllocsRoundTrip pins that an explicit 0 gauge — the
// allocation engine's target — survives the round trip.
func TestLossGradAllocsRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	d := sample()
	d.Gauges = map[string]float64{"lossgrad_allocs_per_op": 0}
	if err := d.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := got.Gauges["lossgrad_allocs_per_op"]; !ok || v != 0 {
		t.Fatalf("explicit zero allocs lost in round trip: %v", got.Gauges)
	}
}

func TestValidateRejectsBadAllocs(t *testing.T) {
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		d := sample()
		d.Gauges = map[string]float64{"lossgrad_allocs_per_op": bad}
		if err := d.Validate(); err == nil {
			t.Errorf("lossgrad_allocs_per_op=%v accepted", bad)
		}
	}
	d := sample()
	d.Gauges = map[string]float64{"lossgrad_allocs_per_op": 1e6, "bogus": 1}
	if err := d.Validate(); err == nil || !strings.Contains(err.Error(), "unknown gauge") {
		t.Fatalf("unknown gauge accepted: %v", err)
	}
	if err := d.WriteFile(filepath.Join(t.TempDir(), "bench.json")); err == nil {
		t.Fatal("WriteFile wrote a document with an unknown gauge")
	}
}

func TestValidateRejectsBadHitRate(t *testing.T) {
	for _, name := range []string{"cache_hit_rate", "tiles_dropped_rate"} {
		for _, bad := range []float64{-0.1, 1.1, math.NaN(), math.Inf(1)} {
			d := sample()
			d.Gauges = map[string]float64{name: bad}
			if err := d.Validate(); err == nil {
				t.Errorf("%s=%v accepted", name, bad)
			}
		}
		d := sample()
		d.Gauges = map[string]float64{name: 1}
		if err := d.Validate(); err != nil {
			t.Fatalf("%s=1 rejected: %v", name, err)
		}
	}
}

// TestCompareGaugeGates pins every gauge's direction, absolute slack
// and finding: an improvement and a value exactly at the slack pass,
// one just beyond the slack fails, and a gauge missing on either side
// is not compared.
func TestCompareGaugeGates(t *testing.T) {
	cases := []struct {
		gauge          string
		base, slack    float64
		higherIsBetter bool
		better         float64
		metric         string
	}{
		{"lossgrad_allocs_per_op", 0, 0.5, false, 0, "allocs/op"},
		{"cache_hit_rate", 0.9, 0.02, true, 1, "hit-rate"},
		{"iterations_to_quality", 12, 4, false, 4, "iters-to-quality"},
		{"tiles_dropped_rate", 0.5, 0.02, true, 0.9, "dropped-rate"},
	}
	compare := func(base, cur map[string]float64) *Result {
		t.Helper()
		b, c := sample(), sample()
		b.Gauges, c.Gauges = base, cur
		res, err := Compare(b, c, CompareOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, tc := range cases {
		at, beyond := tc.base+tc.slack, tc.base+tc.slack+1e-9
		if tc.higherIsBetter {
			at, beyond = tc.base-tc.slack, tc.base-tc.slack-1e-9
		}
		base := map[string]float64{tc.gauge: tc.base}

		for _, cur := range []float64{tc.better, at} {
			if res := compare(base, map[string]float64{tc.gauge: cur}); !res.OK() || res.Checked != 9 {
				t.Errorf("%s %v -> %v: OK=%v checked=%d, want pass with 9 checks",
					tc.gauge, tc.base, cur, res.OK(), res.Checked)
			}
		}

		res := compare(base, map[string]float64{tc.gauge: beyond})
		if len(res.Regressions) != 1 {
			t.Errorf("%s %v -> %v (beyond slack): findings %v, want one", tc.gauge, tc.base, beyond, res.Regressions)
		} else if f := res.Regressions[0]; f.Metric != tc.metric || f.Base != tc.base || f.Cur != beyond ||
			(f.Rel < 0) != tc.higherIsBetter || !strings.Contains(f.String(), " "+tc.metric+": ") {
			t.Errorf("%s: unexpected finding %+v (%s)", tc.gauge, f, f)
		}

		for _, side := range [][2]map[string]float64{{base, nil}, {nil, {tc.gauge: beyond}}} {
			if res := compare(side[0], side[1]); !res.OK() || res.Checked != 8 {
				t.Errorf("%s missing on one side: OK=%v checked=%d, want pass with 8 checks", tc.gauge, res.OK(), res.Checked)
			}
		}
	}
}

// compareGauge compares two sample documents that differ only in one
// gauge; a NaN side leaves the gauge out of that document.
func compareGauge(t *testing.T, gauge string, base, cur float64) *Result {
	t.Helper()
	b, c := sample(), sample()
	if !math.IsNaN(base) {
		b.Gauges = map[string]float64{gauge: base}
	}
	if !math.IsNaN(cur) {
		c.Gauges = map[string]float64{gauge: cur}
	}
	res, err := Compare(b, c, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCompareAllocsGate covers the allocation regression gate: absent
// on either side → not compared; present on both → growth beyond the
// absolute warm-up slack is a regression, and a 0 baseline must stay 0.
func TestCompareAllocsGate(t *testing.T) {
	const g = "lossgrad_allocs_per_op"
	// Baseline without the gauge (pre-measurement document): tolerated.
	if res := compareGauge(t, g, math.NaN(), 100); !res.OK() {
		t.Fatalf("allocs against gauge-less baseline flagged: %v", res.Regressions)
	}

	// 0 -> 0 passes and counts as a performed check.
	if res := compareGauge(t, g, 0, 0); !res.OK() || res.Checked != 9 {
		t.Fatalf("0->0 allocs: OK=%v checked=%d, want pass with 9 checks", res.OK(), res.Checked)
	}

	// 0 -> 2 is a regression even though the relative growth is infinite.
	res := compareGauge(t, g, 0, 2)
	if res.OK() {
		t.Fatal("0 -> 2 allocs/op passed the gate")
	}
	if f := res.Regressions[0]; f.Metric != "allocs/op" || !math.IsInf(f.Rel, 1) {
		t.Fatalf("unexpected finding %+v", f)
	}
}

// TestCompareHitRateGate covers the cache gate: absent on either side
// → not compared; present on both → a drop beyond the absolute slack
// fails, while growth and within-slack dips pass. The direction is
// inverted relative to the allocation gate.
func TestCompareHitRateGate(t *testing.T) {
	const g = "cache_hit_rate"
	// Baseline without the gauge (pre-cache document): tolerated.
	if res := compareGauge(t, g, math.NaN(), 0); !res.OK() {
		t.Fatalf("hit rate against gauge-less baseline flagged: %v", res.Regressions)
	}

	// Identical, improved, and within-slack dips all pass — and count
	// as a performed check.
	for _, c := range [][2]float64{{1, 1}, {0.6, 0.9}, {0.9, 0.89}} {
		if res := compareGauge(t, g, c[0], c[1]); !res.OK() || res.Checked != 9 {
			t.Fatalf("%.2f -> %.2f: OK=%v checked=%d, want pass with 9 checks",
				c[0], c[1], res.OK(), res.Checked)
		}
	}

	// A genuine drop is a regression with the drop as a negative Rel.
	res := compareGauge(t, g, 1, 0.5)
	if res.OK() {
		t.Fatal("hit rate 1.0 -> 0.5 passed the gate")
	}
	if f := res.Regressions[0]; f.Metric != "hit-rate" || f.Rel >= 0 {
		t.Fatalf("unexpected finding %+v", f)
	}
}

func TestCalibrate(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration loop in -short mode")
	}
	c := Calibrate()
	if c <= 0 {
		t.Fatalf("Calibrate() = %d", c)
	}
}

// TestValidateRejectsBadShardCount: the legacy shim keeps the old
// shard_count >= 1 rejection.
func TestValidateRejectsBadShardCount(t *testing.T) {
	for _, bad := range []string{`{"shard_count":0}`, `{"shard_count":-1}`} {
		if _, err := Parse([]byte(bad)); err == nil {
			t.Errorf("%s accepted", bad)
		}
	}
	d, err := Parse([]byte(`{"shard_count":4}`))
	if err != nil {
		t.Fatalf("shard_count=4 rejected: %v", err)
	}
	if d.Provenance["shard_count"] != "4" {
		t.Fatalf("shard_count mapped to %q", d.Provenance["shard_count"])
	}
}

// TestCompareShardCountProvenance: an absent shard_count reads as the
// in-process count 1, so documents predating sharding stay comparable
// with unsharded runs; any true mismatch is incomparable provenance,
// never a regression.
func TestCompareShardCountProvenance(t *testing.T) {
	compareKey(t, "shard_count",
		[][2]string{{"", ""}, {"", "1"}, {"1", ""}, {"2", "2"}},
		[][2]string{{"1", "2"}, {"", "2"}, {"4", ""}})
}

// compareKey runs Compare over base/cur pairs of one provenance key
// ("" = absent) and checks which pairs are comparable.
func compareKey(t *testing.T, key string, compat, mismatch [][2]string) {
	t.Helper()
	run := func(pair [2]string) error {
		base, cur := sample(), sample()
		for i, d := range []*Doc{base, cur} {
			if pair[i] != "" {
				d.Provenance[key] = pair[i]
			}
		}
		_, err := Compare(base, cur, CompareOptions{})
		return err
	}
	for _, pair := range compat {
		if err := run(pair); err != nil {
			t.Errorf("%s %q vs %q: comparable runs rejected: %v", key, pair[0], pair[1], err)
		}
	}
	for _, pair := range mismatch {
		if err := run(pair); err == nil {
			t.Errorf("%s %q vs %q: incomparable runs accepted", key, pair[0], pair[1])
		}
	}
}

func TestValidateRejectsEmptySolver(t *testing.T) {
	d := sample()
	d.Provenance["solver"] = ""
	if err := d.Validate(); err == nil {
		t.Fatal("empty solver accepted")
	}
	d.Provenance["solver"] = "admm"
	if err := d.Validate(); err != nil {
		t.Fatalf("solver=admm rejected: %v", err)
	}
}

func TestParseSolverRoundTrip(t *testing.T) {
	d := sample()
	d.Provenance["solver"] = "curvy"
	raw, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Provenance["solver"] != "curvy" {
		t.Fatalf("solver round-trip = %q", got.Provenance["solver"])
	}
	for _, bad := range []string{`{"solver":""}`, `{"provenance":{"solver":""}}`} {
		if _, err := Parse([]byte(bad)); err == nil {
			t.Fatalf("Parse accepted an empty solver: %s", bad)
		}
	}
}

// TestCompareSolverProvenance: an absent solver reads as the default
// "pixel" backend, so documents predating the solver registry stay
// comparable with default runs; any true mismatch is incomparable
// provenance, never a regression.
func TestCompareSolverProvenance(t *testing.T) {
	compareKey(t, "solver",
		[][2]string{{"", ""}, {"", "pixel"}, {"pixel", ""}, {"admm", "admm"}},
		[][2]string{{"pixel", "admm"}, {"", "curvy"}, {"levelset", ""}})
}

// TestLegacyBaselineShim reads the committed legacy-shape baseline,
// rewrites it in the map shape and reads that back: the maps survive
// unchanged, the rewrite carries no legacy top-level field, and the
// rewritten copy gates exactly like the original.
func TestLegacyBaselineShim(t *testing.T) {
	legacy, err := ReadFile("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rewritten.json")
	if err := legacy.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"scale", "n", "shard_count", "cache_hit_rate", "iterations_to_quality"} {
		if _, ok := top[key]; ok {
			t.Errorf("rewritten document still has legacy field %q", key)
		}
	}
	rewritten, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rewritten.Provenance, legacy.Provenance) || !reflect.DeepEqual(rewritten.Gauges, legacy.Gauges) {
		t.Fatalf("maps changed in the rewrite:\n%v %v\n%v %v",
			legacy.Provenance, legacy.Gauges, rewritten.Provenance, rewritten.Gauges)
	}
	res, err := Compare(legacy, rewritten, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Checked != 20 || !res.OK() {
		t.Fatalf("legacy vs rewritten: %d checks, %v; want 20 checks and no regressions", res.Checked, res.Regressions)
	}
}
