// Command condocck runs ConDocCk: it extracts the true dependencies
// from the corpus and reports every constraint the user manuals fail
// to document (§4.2/§4.3 of the paper; expected: 12 issues).
package main

import (
	"flag"
	"fmt"
	"os"

	"fsdep/internal/cliutil"
	"fsdep/internal/condocck"
	"fsdep/internal/core"
	"fsdep/internal/corpus"
	"fsdep/internal/sched"
	"fsdep/internal/taint"
)

func main() {
	verbose := flag.Bool("v", false, "include the dependency key for each issue")
	flag.Parse()

	comps := corpus.Components()
	outs, err := core.AnalyzeAll(comps, corpus.Scenarios(), core.Options{Mode: taint.Intra}, sched.Sequential())
	if err != nil {
		cliutil.Failf("condocck", err)
	}
	trueDeps, _ := corpus.Score(core.Union(outs).Deps())
	issues := condocck.Check(comps, trueDeps)
	fmt.Printf("checked %d true dependencies against the manuals: %d documentation issues\n\n",
		len(trueDeps), len(issues))
	for _, issue := range issues {
		fmt.Println(" ", issue)
		if *verbose {
			fmt.Printf("      dependency: %s\n", issue.Dep.Key())
		}
	}
	if len(issues) > 0 {
		os.Exit(1)
	}
}
