// Command conbugck runs ConBugCk: it generates dependency-respecting
// configuration states, executes the full ecosystem pipeline under
// each, and reports the configuration coverage gained over the stock
// (modeled) xfstest suite.
//
// With -checkpoint FILE each executed configuration is journaled, and
// a killed run restarted with -resume replays the journal and re-runs
// only the remainder — producing the same report as an uninterrupted
// run (the plan is deterministic for a given -seed).
//
// Exit codes: 0 success, 1 analysis failure or pipeline failures
// found, 2 usage error.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"fsdep/internal/cliutil"
	"fsdep/internal/conbugck"
	"fsdep/internal/sched"
	"fsdep/internal/testsuite"
)

func main() {
	n := flag.Int("n", 25, "number of configuration states to generate")
	seed := flag.Uint64("seed", 42, "generator seed (deterministic plans)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "number of workers (output is identical for any value)")
	stats := flag.Bool("stats", false, "print layered cache counters to stderr")
	cacheDir, storeURL := cliutil.StoreFlags()
	ckpt := flag.String("checkpoint", "", "journal executed configurations to this file")
	resume := flag.Bool("resume", false, "replay executed configurations from the -checkpoint journal")
	flag.Parse()
	if *n <= 0 {
		cliutil.Usagef("conbugck", "-n must be positive (got %d)", *n)
	}
	sopts := sched.Options{Workers: *parallel}

	union := cliutil.ExtractUnion("conbugck", *cacheDir, *storeURL, *stats, sopts)

	gen := conbugck.NewGenerator(union, *seed)
	plan := gen.Plan(*n)
	fmt.Printf("generated %d dependency-respecting configuration states\n", len(plan))
	j := cliutil.OpenJournal("conbugck", *ckpt, *resume)
	rep, err := conbugck.ExecuteCheckpointed(plan, sopts, j)
	if err != nil {
		cliutil.Failf("conbugck", err)
	}
	cliutil.CloseJournal("conbugck", j)
	fmt.Printf("executed pipeline (mkfs → mount → workload → umount → fsck -f) under each state\n")
	fmt.Printf("  shallow rejections: %d (the generator's goal is zero)\n", rep.Shallow)
	fmt.Printf("  deep failures:      %d\n", rep.Deep)

	base, enhanced, newParams := rep.CoverageGain(testsuite.Xfstest().UsedParams())
	fmt.Printf("\nconfiguration parameter coverage: stock xfstest %d → enhanced %d\n", base, enhanced)
	if len(newParams) > 0 {
		fmt.Printf("  newly exercised: %s\n", strings.Join(newParams, ", "))
	}
	if rep.Shallow > 0 || rep.Deep > 0 {
		os.Exit(cliutil.ExitFailure)
	}
}
