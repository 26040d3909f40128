// Command fsdepbench is fsdep's end-to-end benchmark. It runs one named
// workload for a fixed time, with inputs made from a seed, checks the
// output of every operation against the committed goldens, and prints
// one JSON result line last on standard output. README.md in this
// directory describes the workloads, the metrics and the per-layer
// ledger.
//
// Usage (run.sh builds this binary and fsdepd, then runs it):
//
//	fsdepbench --workload NAME --seed N --seconds S --trace 0|1 --fsdepd PATH
//	           [--root DIR] [--work DIR] [--smoke]
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, and the run writes its
// spans to WORK/trace/. --smoke runs a handful of operations per
// workload instead of a timed run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"fsdep/internal/sched"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*env) (*outcome, error){
	"cli-cold":  runCold,
	"cli-store": runStore,
	"sweep":     runSweep,
	"serve":     runServe,
}

// e2eMetrics are the bounded end-to-end metrics, printed with
// --trace 0 on every workload. BENCHMARK.json lists the same names.
var e2eMetrics = []string{"setup_s", "op_p50_ms", "ops_per_s"}

// layerMetrics are printed with --trace 1 on every workload; a layer
// the workload never calls reads 0. The first group are end-to-end
// figures that apply to some workloads only, that can be 0, or whose
// run-to-run spread is too wide for a bound.
var layerMetrics = []string{
	"peak_rss_mb", "op_tail_ms", "fail_ratio", "disk_p50_ms", "fill_p50_ms", "trials_per_s",
	"write_p50_ms", "write_tail_ms", "trace.overhead_ms",
	"minicc.lex_ms", "minicc.parse_ms", "minicc.tokens",
	"ir.build_ms", "ir.instrs",
	"core.compile_ms", "core.progcache_hit_ratio",
	"taint.fixpoint_ms", "taint.engine_runs", "taint.memo_hit_ratio", "taint.summary_hit_ratio",
	"core.derive_ms", "core.prefetch_ms",
	"report.score_ms", "report.render_ms",
	"depstore.get_us", "depstore.hot_hit_ratio", "depstore.put_ms",
	"depstore.records_per_op", "depstore.bytes_per_op",
	"wire.encode_ms", "wire.decode_ms", "wire.bytes", "wire.gzip_ratio",
	"remote.round_trips", "remote.batch_get_ms", "remote.retries",
	"service.deps_ms", "service.violations_ms", "service.violations_regen_ms",
	"service.batch_get_ms", "service.upload_ms", "service.queue_ms", "service.shed",
	"fsim.device_cycle_us", "fsim.audit_ms",
	"mke2fs.run_ms", "resize2fs.run_ms", "e2fsck.run_ms",
	"conhandleck.sweep_ms", "conhandleck.trials",
	"concrashck.sweep_ms", "concrashck.trials",
	"conbugck.exec_ms", "conbugck.trials",
	"sched.speedup",
	"go.alloc_mb_per_op", "go.gc_cycles_per_op",
}

// unitOf gives a metric's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_mb"), strings.HasSuffix(name, "mb_per_op"):
		return "MB"
	case strings.HasSuffix(name, "_ratio"), name == "sched.speedup":
		return "ratio"
	case name == "wire.bytes", name == "depstore.bytes_per_op":
		return "bytes"
	}
	return "count"
}

// env is one run's configuration.
type env struct {
	fsdepd  string // fsdepd binary
	work    string // working directory for stores and logs
	name    string
	seed    uint64
	seconds time.Duration
	trace   bool
	smoke   bool
	sopts   sched.Options
	golden  *golden
	tr      *tracer // nil unless --trace 1
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed, wrong int
	setup                    []time.Duration      // one per set-up repetition
	ops                      []float64            // successful op latencies, ms
	timed                    time.Duration        // timed wall clock for ops_per_s
	completed                int                  // ops counted by ops_per_s
	rssMB                    float64              // VmHWM of the process doing the work
	metrics                  map[string]float64   // metrics set directly
	series                   map[string][]float64 // per-op samples, reported as medians
	info                     map[string]any       // run record beside the numbers
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, series: map[string][]float64{}, info: map[string]any{}}
}

// sample adds one per-op value of a per-layer metric.
func (o *outcome) sample(name string, v float64) { o.series[name] = append(o.series[name], v) }

// smokeOps is how many ops a --smoke run makes per workload.
const smokeOps = 3

// phase calls fn until share of the measured time is spent, or
// smokeOps times in smoke mode. In a traced run every other call gets
// the tracer; the others get nil and run untraced.
func (e *env) phase(share float64, fn func(i int, tr *tracer)) {
	deadline := time.Now().Add(time.Duration(share * float64(e.seconds)))
	for i := 0; ; i++ {
		if e.smoke && i >= smokeOps || !e.smoke && i > 0 && !time.Now().Before(deadline) {
			return
		}
		var tr *tracer
		if e.trace && i%2 == 0 {
			tr = e.tr
		}
		fn(i, tr)
	}
}

// loop runs the workload's op for share of the measured time. op times
// itself, so preparing inputs and checking outputs stay off the clock.
// The untraced ops of a traced run give the tracing overhead and the
// allocation counts.
func (e *env) loop(o *outcome, share float64, op func(i int, tr *tracer) (time.Duration, error)) {
	var traced, untraced []float64
	e.phase(share, func(i int, tr *tracer) {
		var m0, m1 runtime.MemStats
		if e.trace && tr == nil {
			runtime.ReadMemStats(&m0)
		}
		d, err := op(i, tr)
		o.record(d, err)
		if err != nil {
			return
		}
		o.timed += d
		o.completed++
		switch {
		case tr != nil:
			traced = append(traced, ms(d))
		case e.trace:
			runtime.ReadMemStats(&m1)
			untraced = append(untraced, ms(d))
			o.sample("go.alloc_mb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
			o.sample("go.gc_cycles_per_op", float64(m1.NumGC-m0.NumGC))
		}
	})
	if e.trace {
		o.metrics["trace.overhead_ms"] = median(traced) - median(untraced)
		o.info["trace_overhead"] = map[string]any{
			"traced_op_p50_ms": median(traced), "untraced_op_p50_ms": median(untraced),
			"traced_ops": len(traced), "untraced_ops": len(untraced),
		}
	}
}

// tally counts one attempted op and reports whether it succeeded.
func (o *outcome) tally(err error) bool {
	o.attempted++
	if err == nil {
		return true
	}
	o.failed++
	if isWrong(err) {
		o.wrong++
	}
	if o.failed <= 5 {
		fmt.Fprintf(os.Stderr, "fsdepbench: op %d failed: %v\n", o.attempted, err)
	}
	return false
}

// record tallies one op; a successful one adds its latency.
func (o *outcome) record(d time.Duration, err error) {
	if o.tally(err) {
		o.ops = append(o.ops, ms(d))
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: cli-cold, cli-store, sweep or serve")
	seed := flag.Uint64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 10, "measured run length in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	root := flag.String("root", ".", "repository root holding the goldens")
	fsdepd := flag.String("fsdepd", "", "fsdepd binary started for cli-store and serve")
	work := flag.String("work", ".bench_build/work", "directory for stores, logs and traces")
	smoke := flag.Bool("smoke", false, "run a handful of ops instead of a timed run")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: fsdepbench --workload cli-cold|cli-store|sweep|serve --seed N --seconds S --trace 0|1 --fsdepd PATH")
		os.Exit(2)
	}
	e := &env{
		fsdepd: *fsdepd, name: *workload, seed: *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1, smoke: *smoke,
		sopts: sched.Options{Workers: runtime.GOMAXPROCS(0)},
	}
	if err := e.run(run, *root, *work); err != nil {
		fmt.Fprintf(os.Stderr, "fsdepbench: %v\n", err)
		os.Exit(1)
	}
}

// run loads the goldens, runs the workload in a fresh directory
// under work and prints its result.
func (e *env) run(workload func(*env) (*outcome, error), root, work string) error {
	var err error
	if e.golden, err = loadGolden(root); err != nil {
		return err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	if e.work, err = os.MkdirTemp(work, e.name+"-"); err != nil {
		return err
	}
	defer os.RemoveAll(e.work)
	limitConnections(runtime.NumCPU())
	if e.trace {
		e.tr = newTracer()
	}
	o, err := workload(e)
	if err != nil {
		return err
	}
	return printResult(e, o, work)
}

// printResult prints the run record line, then the result line last.
func printResult(e *env, o *outcome, workRoot string) error {
	all := map[string]float64{
		"setup_s":     median(seconds(o.setup)),
		"op_p50_ms":   median(o.ops),
		"ops_per_s":   ratio(float64(o.completed), o.timed.Seconds()),
		"peak_rss_mb": o.rssMB,
		"fail_ratio":  float64(o.failed) / float64(max(o.attempted, 1)),
	}
	if t, ok := tailOf(o.ops); ok {
		all["op_tail_ms"] = t.Value
		o.info["op_tail"] = t
	} else {
		o.info["op_tail"] = "unsupported: fewer than 10 samples beyond p90"
	}
	for k, xs := range o.series {
		all[k] = median(xs)
	}
	for k, v := range o.metrics {
		all[k] = v
	}
	names := e2eMetrics
	if e.trace {
		names = layerMetrics
	}
	res := result{
		Correct:   o.wrong == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metric{},
	}
	for _, n := range names {
		res.Metrics[n] = metric{Value: all[n], Unit: unitOf(n)}
	}
	o.info["workload"] = e.name
	o.info["seed"] = e.seed
	o.info["seconds"] = e.seconds.Seconds()
	o.info["trace"] = e.trace
	o.info["smoke"] = e.smoke
	o.info["nproc"] = runtime.NumCPU()
	o.info["gomaxprocs"] = runtime.GOMAXPROCS(0)
	o.info["go_version"] = runtime.Version()
	o.info["op_samples"] = len(o.ops)
	o.info["setup_samples_s"] = seconds(o.setup)
	measured := map[string]metric{}
	for k, v := range all {
		measured[k] = metric{Value: v, Unit: unitOf(k)}
	}
	o.info["measured"] = measured
	if e.tr != nil {
		path := filepath.Join(workRoot, "trace", fmt.Sprintf("%s-seed%d.json", e.name, e.seed))
		if err := e.tr.write(path, o.info); err != nil {
			return err
		}
		o.info["trace_file"] = path
	}
	rec, err := json.Marshal(map[string]any{"fsdepbench": o.info})
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(rec))
	fmt.Println(string(line))
	return nil
}
