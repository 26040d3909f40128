// Docaudit runs ConDocCk over the full corpus: it extracts the true
// configuration dependencies from every scenario and cross-checks them
// against the parameter manuals, printing the documentation issues
// grouped by kind (the paper found 12, including the missing
// meta_bg/resize_inode conflict in the mke2fs manual).
package main

import (
	"fmt"
	"log"

	"fsdep/internal/condocck"
	"fsdep/internal/core"
	"fsdep/internal/corpus"
	"fsdep/internal/sched"
)

func main() {
	comps := corpus.Components()
	outs, err := core.AnalyzeAll(comps, corpus.Scenarios(), core.Options{}, sched.Sequential())
	if err != nil {
		log.Fatal(err)
	}
	union := core.Union(outs)
	trueDeps, falseDeps := corpus.Score(union.Deps())
	fmt.Printf("extraction: %d dependencies (%d true, %d false positives)\n",
		union.Len(), len(trueDeps), len(falseDeps))

	issues := condocck.Check(comps, trueDeps)
	fmt.Printf("ConDocCk: %d documentation issues\n\n", len(issues))

	byKind := map[condocck.IssueKind][]condocck.Issue{}
	order := []condocck.IssueKind{
		condocck.MissingConstraint, condocck.MissingRange, condocck.MissingCrossComponent,
	}
	for _, i := range issues {
		byKind[i.Kind] = append(byKind[i.Kind], i)
	}
	for _, k := range order {
		if len(byKind[k]) == 0 {
			continue
		}
		fmt.Printf("%s (%d):\n", k, len(byKind[k]))
		for _, i := range byKind[k] {
			fmt.Printf("  %-22s %s\n", i.Param, i.Detail)
		}
		fmt.Println()
	}
}
