package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"

	"fsdep/internal/depmodel"
	"fsdep/internal/report"
)

// errWrong marks an op whose output disagrees with the reference. It
// is a failed op like any other, and it also makes the run incorrect.
var errWrong = errors.New("wrong output")

func wrongf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errWrong, fmt.Sprintf(format, args...))
}

func isWrong(err error) bool { return errors.Is(err, errWrong) }

// golden holds the references every op is checked against. They come
// from the committed report goldens, not from the code under test.
type golden struct {
	table5    string          // Table-5 block of all_golden.txt, trailing space trimmed
	depsJSON  []byte          // deps_golden.json
	keys      map[string]bool // the strict union across scenarios
	extracted int             // unique dependencies, from the "Overall:" line
	fp        int
	rows      map[string]goldenRow
}

type goldenRow struct{ extracted, fp int }

var (
	cellSep     = regexp.MustCompile(`\s{2,}`)
	overallLine = regexp.MustCompile(`^Overall: (\d+) unique multi-level dependencies extracted, (\d+) false positives`)
)

func loadGolden(root string) (*golden, error) {
	dir := filepath.Join(root, "internal", "report", "testdata")
	all, err := os.ReadFile(filepath.Join(dir, "all_golden.txt"))
	if err != nil {
		return nil, fmt.Errorf("reading golden report: %w", err)
	}
	deps, err := os.ReadFile(filepath.Join(dir, "deps_golden.json"))
	if err != nil {
		return nil, fmt.Errorf("reading golden dependencies: %w", err)
	}
	g := &golden{depsJSON: deps, keys: map[string]bool{}, rows: map[string]goldenRow{}}
	var block []string
	in := false
	for _, line := range strings.Split(string(all), "\n") {
		if strings.HasPrefix(line, "== ") {
			in = strings.HasPrefix(line, "== Table 5:")
			continue
		}
		if in {
			block = append(block, line)
		}
	}
	g.table5 = strings.TrimRight(strings.Join(block, "\n"), " \n")
	for _, line := range block {
		if m := overallLine.FindStringSubmatch(line); m != nil {
			g.extracted, _ = strconv.Atoi(m[1])
			g.fp, _ = strconv.Atoi(m[2])
			continue
		}
		cells := cellSep.Split(strings.TrimSpace(line), -1)
		if len(cells) != 7 || cells[0] == "Usage Scenario" || cells[0] == "Total Unique" {
			continue
		}
		var row goldenRow
		for i := 1; i < 7; i += 2 {
			row.extracted += leadingInt(cells[i])
			row.fp += leadingInt(cells[i+1])
		}
		g.rows[cells[0]] = row
	}
	file, err := depmodel.DecodeFile(deps)
	if err != nil {
		return nil, fmt.Errorf("decoding golden dependencies: %w", err)
	}
	for _, d := range file.Dependencies {
		g.keys[d.Key()] = true
	}
	if g.extracted == 0 || len(g.rows) == 0 || len(g.keys) < g.extracted {
		return nil, fmt.Errorf("golden Table 5 (%d extracted, %d scenarios) disagrees with golden dependencies (%d)",
			g.extracted, len(g.rows), len(g.keys))
	}
	return g, nil
}

// leadingInt parses "3 (9.4%)" as 3 and "-" as 0.
func leadingInt(cell string) int {
	f := strings.Fields(cell)
	if len(f) == 0 {
		return 0
	}
	n, _ := strconv.Atoi(f[0])
	return n
}

// encodeUnion renders a dependency list the way deps_golden.json was
// written.
func encodeUnion(deps []depmodel.Dependency) ([]byte, error) {
	f := &depmodel.File{Ecosystem: "ext4", Scenario: "all-scenarios", Dependencies: deps}
	b, err := f.Encode()
	return append(b, '\n'), err
}

// checkTable5 checks one CLI run: the rendered table, the union's
// dependency set and its score.
func (g *golden) checkTable5(rendered []byte, res *report.Table5Result, tp, fp int) error {
	if got := strings.TrimRight(string(rendered), " \n"); got != g.table5 {
		return wrongf("Table 5 differs from the golden:\n%s", got)
	}
	b, err := encodeUnion(res.Union.Deps.Sorted())
	if err != nil {
		return err
	}
	if !bytes.Equal(b, g.depsJSON) {
		return wrongf("dependency set differs from deps_golden.json")
	}
	if res.TotalExtracted() != g.extracted || res.TotalFP() != g.fp || tp+fp != len(g.keys) {
		return wrongf("%d extracted, %d false positives, union of %d scored; golden %d, %d and %d",
			res.TotalExtracted(), res.TotalFP(), tp+fp, g.extracted, g.fp, len(g.keys))
	}
	return nil
}

// depsBody is the part of a /v1/deps response the check reads.
type depsBody struct {
	Extracted      int                   `json:"extracted"`
	FalsePositives *int                  `json:"false_positives"`
	Dependencies   []depmodel.Dependency `json:"dependencies"`
}

// checkDeps checks a /v1/deps body: the union must match the golden
// byte for byte once re-encoded, and a scenario must have its golden
// Table-5 counts with every dependency drawn from the golden set.
func (g *golden) checkDeps(body []byte, scenario string) error {
	var d depsBody
	if err := json.Unmarshal(body, &d); err != nil {
		return wrongf("decoding deps body: %v", err)
	}
	if scenario == "" {
		b, err := encodeUnion(d.Dependencies)
		if err != nil {
			return err
		}
		if !bytes.Equal(b, g.depsJSON) {
			return wrongf("union deps differ from deps_golden.json")
		}
		return nil
	}
	want, ok := g.rows[scenario]
	if !ok {
		return fmt.Errorf("no golden row for scenario %q", scenario)
	}
	if d.Extracted != want.extracted || len(d.Dependencies) != want.extracted ||
		d.FalsePositives == nil || *d.FalsePositives != want.fp {
		return wrongf("scenario %s: %d extracted (%d listed), golden %d extracted / %d false positives",
			scenario, d.Extracted, len(d.Dependencies), want.extracted, want.fp)
	}
	for _, dep := range d.Dependencies {
		if !g.keys[dep.Key()] {
			return wrongf("scenario %s: dependency %s is not in the golden set", scenario, dep.Key())
		}
	}
	return nil
}
