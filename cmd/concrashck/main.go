// Command concrashck runs ConCrashCk: it sweeps dependency-violating
// configurations from the ConHandleCk catalog across enumerated
// crash/fault points of the resize stage and classifies how the
// ecosystem recovers (clean, detected-and-repaired, silent corruption,
// crash loop). Any silent corruption exits nonzero.
//
// The sweep is driven by the analyzer's extraction: the corpus is
// analyzed first and only catalog scenarios whose violated dependency
// was actually extracted (plus the controls) are swept. The sweep fans
// out on -parallel workers; every fault choice derives from -seed, so
// the report is byte-identical for any worker count and fully
// replayable. With -checkpoint FILE each finished trial is journaled,
// and a killed sweep restarted with -resume replays the journal and
// re-runs only the remainder — producing the same report as an
// uninterrupted run.
//
// Exit codes: 0 success, 1 analysis failure or silent corruption
// found, 2 usage error.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"fsdep/internal/cliutil"
	"fsdep/internal/concrashck"
	"fsdep/internal/sched"
)

func main() {
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "number of workers (output is identical for any value)")
	seed := flag.Uint64("seed", 0, "base seed for fault choices (0 = default)")
	points := flag.Int("points", 0, "max fault points per mode and scenario (0 = default 16)")
	stats := flag.Bool("stats", false, "print layered cache counters to stderr")
	cacheDir, storeURL := cliutil.StoreFlags()
	ckpt := flag.String("checkpoint", "", "journal finished trials to this file")
	resume := flag.Bool("resume", false, "replay finished trials from the -checkpoint journal")
	flag.Parse()
	if *points < 0 {
		cliutil.Usagef("concrashck", "-points must be non-negative (got %d)", *points)
	}
	sopts := sched.Options{Workers: *parallel}

	// The sweep catalog is selected by the extraction: analyze the
	// corpus once and keep only the scenarios whose violated dependency
	// the analyzer actually found.
	union := cliutil.ExtractUnion("concrashck", *cacheDir, *storeURL, *stats, sopts)

	j := cliutil.OpenJournal("concrashck", *ckpt, *resume)
	rep, err := concrashck.SweepCheckpointed(concrashck.ScenariosFor(union), concrashck.Options{
		Seed:             *seed,
		MaxPointsPerMode: *points,
	}, sopts, j)
	if err != nil {
		cliutil.Failf("concrashck", err)
	}
	cliutil.CloseJournal("concrashck", j)
	if err := rep.Render(os.Stdout); err != nil {
		cliutil.Failf("concrashck", err)
	}

	// The Figure-1 comparison: same dependency violation, buggy vs
	// fixed resize2fs.
	buggy, okB := rep.RowFor("figure1-sparse_super2-buggy")
	fixed, okF := rep.RowFor("figure1-sparse_super2-fixed")
	if okB && okF {
		fmt.Printf("\nfigure-1 comparison: buggy resize2fs → %d silent / %d trials; fixed resize2fs → %d silent / %d trials\n",
			buggy.Silent, buggy.Trials, fixed.Silent, fixed.Trials)
	}

	if silent := rep.Silent(); len(silent) > 0 {
		os.Exit(cliutil.ExitFailure)
	}
}
