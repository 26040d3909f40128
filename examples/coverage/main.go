// Coverage demonstrates ConBugCk enhancing the (modeled) xfstest
// suite: the stock suite exercises under 34.1% of the Ext4 ecosystem's
// configuration parameters (Table 2); the dependency-respecting
// generator produces configuration states that pass validation every
// time and drive the full pipeline — mkfs, mount, workload, unmount,
// fsck — under many more parameters.
package main

import (
	"fmt"
	"log"
	"strings"

	"fsdep/internal/conbugck"
	"fsdep/internal/core"
	"fsdep/internal/corpus"
	"fsdep/internal/sched"
	"fsdep/internal/testsuite"
)

func main() {
	// Stock coverage (Table 2).
	for _, s := range testsuite.All() {
		c := s.Coverage()
		fmt.Printf("stock %-16s → %-10s uses %2d of %2d parameters (%.1f%%)\n",
			c.Suite, c.Target, c.Used, c.Total, c.Percent)
	}

	// Extract dependencies and build the generator.
	comps := corpus.Components()
	outs, err := core.AnalyzeAll(comps, corpus.Scenarios(), core.Options{}, sched.Sequential())
	if err != nil {
		log.Fatal(err)
	}
	union := core.Union(outs)
	gen := conbugck.NewGenerator(union, 2024)
	plan := gen.Plan(30)
	fmt.Printf("\nConBugCk: generated %d dependency-respecting configurations\n", len(plan))
	rep := conbugck.ExecuteParallel(plan, sched.Sequential())
	fmt.Printf("  shallow rejections: %d, deep failures: %d\n", rep.Shallow, rep.Deep)

	base, enhanced, newParams := rep.CoverageGain(testsuite.Xfstest().UsedParams())
	fmt.Printf("  parameter coverage: %d → %d\n", base, enhanced)
	fmt.Printf("  newly exercised: %s\n", strings.Join(newParams, ", "))
}
