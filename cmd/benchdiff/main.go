// Command benchdiff is the benchmark-regression gate: it compares a
// fresh `cmd/iltbench -json` document against a committed baseline and
// exits non-zero when performance or quality regressed.
//
//	go run ./cmd/iltbench -scale small -json BENCH_fresh.json
//	go run ./cmd/benchdiff -baseline BENCH_baseline.json -current BENCH_fresh.json
//
// Gate rules (see internal/benchfmt.Compare):
//
//   - Quality (L2 / PVBand / Stitch): any growth beyond a tiny epsilon
//     fails — the experiments are deterministic, so growth means the
//     code got worse, not the run noisier.
//   - TAT: growth beyond -tat-threshold (default 10%) fails. TATs are
//     normalised by each document's host-calibration measurement
//     (calib_ns) so a committed baseline remains meaningful on a
//     differently-sized CI runner; -abs-tat compares raw seconds
//     instead.
//   - Gauges (allocations, cache hit rate, convergence): each may move
//     the wrong way by at most its absolute slack, per the policy table
//     in internal/benchfmt; a gauge is checked when both documents
//     carry it.
//   - Provenance (every key of either document's provenance map, an
//     absent key reading as its default) must match exactly, or
//     benchdiff refuses the comparison (exit 2) rather than produce a
//     meaningless verdict.
//
// Exit codes: 0 pass, 1 regression detected, 2 usage / incomparable
// documents.
package main

import (
	"flag"
	"fmt"
	"os"

	"mgsilt/internal/benchfmt"
)

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_baseline.json", "committed baseline document")
		currentPath  = flag.String("current", "", "fresh iltbench -json document (required)")
		tatThreshold = flag.Float64("tat-threshold", 0.10, "tolerated relative TAT growth")
		qualityEps   = flag.Float64("quality-eps", 1e-9, "tolerated relative quality-metric growth")
		absTAT       = flag.Bool("abs-tat", false, "compare raw TAT seconds instead of calibration-normalised")
	)
	flag.Parse()
	if *currentPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -current is required")
		flag.Usage()
		os.Exit(2)
	}

	base, err := benchfmt.ReadFile(*baselinePath)
	if err != nil {
		fatal(err)
	}
	cur, err := benchfmt.ReadFile(*currentPath)
	if err != nil {
		fatal(err)
	}

	res, err := benchfmt.Compare(base, cur, benchfmt.CompareOptions{
		TATThreshold: *tatThreshold,
		QualityEps:   *qualityEps,
		AbsoluteTAT:  *absTAT,
	})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("benchdiff: baseline %s (git %s, calib %dns) vs current %s (git %s, calib %dns)\n",
		base.GeneratedAt, orUnknown(base.GitDescribe), base.CalibNS,
		cur.GeneratedAt, orUnknown(cur.GitDescribe), cur.CalibNS)
	fmt.Printf("benchdiff: %d comparisons, %d regressions\n", res.Checked, len(res.Regressions))
	if res.Checked == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: no overlapping per-method experiments — vacuous pass refused")
		os.Exit(2)
	}
	if !res.OK() {
		for _, f := range res.Regressions {
			fmt.Printf("REGRESSION %s\n", f)
		}
		os.Exit(1)
	}
	fmt.Println("benchdiff: OK")
}

func orUnknown(s string) string {
	if s == "" {
		return "unknown"
	}
	return s
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(2)
}
