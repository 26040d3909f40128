// Command conhandleck runs ConHandleCk: it violates extracted
// configuration dependencies against the live simulated ecosystem and
// classifies how each violation is handled. A silent corruption —
// the paper found exactly one, the Figure-1 resize2fs case — exits
// nonzero.
//
// Both the extraction and the violation sweep run concurrently on
// -parallel workers (each violation gets its own fsim pipeline
// instance); the report is byte-identical for any worker count. With
// -checkpoint FILE each finished violation is journaled, and a killed
// run restarted with -resume replays the journal and re-runs only the
// remainder — producing the same report as an uninterrupted run.
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
	"fsdep/internal/conhandleck"
	"fsdep/internal/sched"
)

func main() {
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "number of workers (output is identical for any value)")
	stats := flag.Bool("stats", false, "print layered cache counters to stderr")
	cacheDir, storeURL := cliutil.StoreFlags()
	ckpt := flag.String("checkpoint", "", "journal finished violations to this file")
	resume := flag.Bool("resume", false, "replay finished violations from the -checkpoint journal")
	flag.Parse()
	sopts := sched.Options{Workers: *parallel}

	union := cliutil.ExtractUnion("conhandleck", *cacheDir, *storeURL, *stats, sopts)
	j := cliutil.OpenJournal("conhandleck", *ckpt, *resume)
	rep, err := conhandleck.RunCheckpointed(union, sopts, j)
	if err != nil {
		cliutil.Failf("conhandleck", err)
	}
	cliutil.CloseJournal("conhandleck", j)
	fmt.Printf("%-62s %-18s %s\n", "VIOLATION", "OUTCOME", "DETAIL")
	for _, tr := range rep.Trials {
		detail := tr.Detail
		if len(detail) > 60 {
			detail = detail[:57] + "..."
		}
		fmt.Printf("%-62s %-18s %s\n", tr.Desc, tr.Outcome, detail)
	}
	fmt.Printf("\n%d violations: %d rejected gracefully, %d benign, %d silent corruptions\n",
		len(rep.Trials), rep.Counts[conhandleck.Rejected],
		rep.Counts[conhandleck.Benign], rep.Counts[conhandleck.SilentCorruption])
	if n := rep.Counts[conhandleck.SilentCorruption]; n > 0 {
		fmt.Println("\nBAD CONFIGURATION HANDLING FOUND:")
		for _, tr := range rep.Corruptions() {
			fmt.Printf("  %s → %s\n", tr.Desc, tr.Detail)
		}
		os.Exit(cliutil.ExitFailure)
	}
}
