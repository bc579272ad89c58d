// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time, checks the program's outputs, and prints
// its metrics by name with their units, the last line of standard
// output being one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {"tat_s": {"value": 4.1, "unit": "s"}, ...}}
//
// Usage, from the repository root (run.sh builds it first):
//
//	bash perfbench/run.sh --workload mgs-n128 --seed 7 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// records spans around every layer boundary it can reach from outside
// the program and reports the per-layer metrics instead, writing the
// spans to -out when given. BENCHMARK.json at the repository root lists
// the metrics; PREDICTIONS.md beside this file says which layer metric
// should move which end-to-end metric on which workload.
package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"mgsilt/internal/grid"
	"mgsilt/internal/parallel"
)

// The workloads. Each uses at most nproc-sized concurrency: the compute
// pool is pinned to nproc, and the shard and serve workloads run two
// workers / clients, the width of the machine they were sized on.
var (
	// mgs-n128: the paper's flow at its tile size, on one in-process
	// device, with no cache, batcher or shard installed.
	mgsN128 = flowSpec{n: 128, clipSize: 256, iters: 100, solver: "pixel", seeded: 4}
	// shard-curvy-n64: 7×7 tiles through the shard coordinator to two
	// loopback workers, curvy solver, two-level correction and dropout.
	// 40 iterations (16 per fine stage) keep a flow near 3 s on two
	// cores, so a run's median is taken over several flows.
	shardCurvyN64 = flowSpec{
		n: 64, clipSize: 256, iters: 40, solver: "curvy",
		coarseCorrect: true, fineStages: 4, dropTol: 0.05, shardWorkers: 2, seeded: 7,
	}
	// serve-cells-n64: the job service with cache and batcher under two
	// closed-loop clients. The 16 MiB cache holds the resubmitted clips'
	// tiles and a dozen unique jobs' (about 0.9 MiB each), far below the
	// unique clips' working set over a run, so entries are evicted.
	serveCellsN64 = serveSpec{
		n: 64, clipSize: 128, iters: 20, workers: 2, clients: 2,
		batchSize: 2, cacheBytes: 16 << 20, perClient: 200,
	}
)

var workloads = map[string]func(runOpts) (*outcome, error){
	"mgs-n128":        func(o runOpts) (*outcome, error) { return runFlowWorkload(mgsN128, o) },
	"shard-curvy-n64": func(o runOpts) (*outcome, error) { return runFlowWorkload(shardCurvyN64, o) },
	"serve-cells-n64": func(o runOpts) (*outcome, error) { return runServeWorkload(serveCellsN64, o) },
}

// A run sets its workload up several times and setup_s is the median:
// at least minSetups times, and up to maxSetups while the set-ups so
// far took under setupBudget seconds, so that a set-up of a few
// milliseconds is still a median over enough repetitions to be steady.
const (
	minSetups   = 5
	maxSetups   = 25
	setupBudget = 0.5
)

// moreSetups reports whether a run that has timed setups should set up
// once more.
func moreSetups(setups []float64) bool {
	var total float64
	for _, s := range setups {
		total += s
	}
	return len(setups) < minSetups || (len(setups) < maxSetups && total < setupBudget)
}

// deadline bounds a whole run: past it the benchmark gives up without a
// result rather than overrun its caller's limit.
const deadline = 170 * time.Second

type runOpts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceID  string
}

// outcome is what a workload run measured and found.
type outcome struct {
	attempted int
	problems  []string // correctness failures
	m         map[string]float64
	notes     []string
	spans     []span
}

func newOutcome() *outcome { return &outcome{m: map[string]float64{}} }

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// maskDigest hashes a mask's exact float64 bits.
func maskDigest(m *grid.Mat) string {
	h := sha256.New()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(m.H)<<32|uint64(m.W))
	h.Write(b[:])
	for _, v := range m.Data {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// provenance pins the compute pool to at most nproc and describes the
// run's thread budget and build.
func provenance() map[string]string {
	nproc := runtime.NumCPU()
	if parallel.Workers() > nproc {
		parallel.SetWorkers(nproc)
	}
	// Only a git checkout run from its root is described, so git never
	// looks outside the directory the benchmark runs in.
	describe := "unknown (not a git checkout)"
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "describe", "--always", "--dirty").Output(); err == nil {
			describe = strings.TrimSpace(string(out))
		}
	}
	return map[string]string{
		"nproc":            fmt.Sprint(nproc),
		"gomaxprocs":       fmt.Sprint(runtime.GOMAXPROCS(0)),
		"parallel_workers": fmt.Sprint(parallel.Workers()),
		"go_version":       runtime.Version(),
		"git_describe":     describe,
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var o runOpts
	flag.StringVar(&o.workload, "workload", "", "workload: mgs-n128 | shard-curvy-n64 | serve-cells-n64")
	flag.Int64Var(&o.seed, "seed", 1, "input seed: every clip and job stream derives from it")
	flag.Float64Var(&o.seconds, "seconds", 30, "measured time per run")
	traceFlag := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	outDir := flag.String("out", "", "directory for the traced run's span file (none when empty)")
	flag.Parse()
	run, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (mgs-n128 | shard-curvy-n64 | serve-cells-n64), --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	o.trace = *traceFlag == 1
	o.traceID = fmt.Sprintf("%s-seed%d-%d", o.workload, o.seed, time.Now().UnixNano())
	time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", deadline)
		os.Exit(3)
	})

	prov := provenance()
	out, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out.m["max_rss_mb"] = maxRSSMB()
	if o.trace {
		out.m["trace.spans"] = float64(len(out.spans))
	}

	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res := result{
		Correct: len(out.problems) == 0, Attempted: out.attempted,
		Failed: len(out.problems), Metrics: map[string]metricValue{},
	}
	fmt.Printf("workload %s seed %d: %d attempted, %d failed\n", o.workload, o.seed, res.Attempted, res.Failed)
	for _, k := range []string{"nproc", "gomaxprocs", "parallel_workers", "go_version", "git_describe"} {
		fmt.Printf("  %-16s %s\n", k, prov[k])
	}
	for _, n := range out.notes {
		fmt.Println("  " + n)
	}
	for _, p := range out.problems {
		fmt.Println("  FAILED: " + p)
	}
	if res.Attempted > 0 {
		fmt.Printf("  %-28s %12.4f\n", "error_rate", float64(res.Failed)/float64(res.Attempted))
	}
	for _, d := range defs {
		v := out.m[d.name] // 0 for a layer this workload does not reach
		res.Metrics[d.name] = metricValue{v, d.unit}
		fmt.Printf("  %-28s %12.4f %s\n", d.name, v, d.unit)
	}
	if o.trace {
		self := selfTimes(out.spans)
		fmt.Println("  span self time (s):")
		names := make([]string, 0, len(self))
		for name := range self {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("    %-24s %10.3f\n", name, self[name])
		}
		if *outDir != "" {
			if err := writeTrace(*outDir, o, prov, out, self); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: trace file:", err)
			}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// writeTrace writes the traced run's spans, per-name self times and
// metrics as one JSON file in dir.
func writeTrace(dir string, o runOpts, prov map[string]string, out *outcome, self map[string]float64) error {
	doc := map[string]any{
		"workload": o.workload, "seed": o.seed, "trace": o.traceID,
		"provenance": prov, "spans": out.spans, "self_s": self, "metrics": out.m,
	}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("  spans written to %s\n", path)
	return nil
}
