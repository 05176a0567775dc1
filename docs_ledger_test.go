package genclus_test

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// ledgerDocs are the documents that cite performance ledger keys.
var ledgerDocs = []string{"README.md", "docs/ARCHITECTURE.md", ".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml"}

// TestPerformanceDocsCiteTheLedger pins the documents to BENCH_fit.json in
// both directions, so a number lives in the ledger and the documents only
// name it: every ledger-shaped key (a ledger key family, a slash, a name)
// cited in ledgerDocs exists in the ledger; every ledger key has a row in
// README.md's Performance table, whose CI bounds column says what ci.yml's
// gate step passes for the key ("ungated" when it passes nothing); and
// README.md's one regeneration command names every benchmark in
// bench_fit_test.go, so it rewrites every key.
func TestPerformanceDocsCiteTheLedger(t *testing.T) {
	data, err := os.ReadFile("BENCH_fit.json")
	if err != nil {
		t.Fatal(err)
	}
	var ledger map[string]json.RawMessage
	if err := json.Unmarshal(data, &ledger); err != nil {
		t.Fatalf("BENCH_fit.json: %v", err)
	}

	keyRE := ledgerKeyPattern(ledger)
	for _, doc := range ledgerDocs {
		text := readDoc(t, doc)
		for i, line := range strings.Split(text, "\n") {
			for _, key := range citedKeys(keyRE, line) {
				if _, ok := ledger[key]; !ok {
					t.Errorf("%s:%d cites %s, which BENCH_fit.json does not hold", doc, i+1, key)
				}
			}
		}
	}

	readme := readDoc(t, "README.md")
	perf := readme[strings.Index(readme, "## Performance\n"):]
	perf = perf[:strings.Index(perf, "\n## ")]
	rows := make(map[string]string)
	for _, line := range strings.Split(perf, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		rows[strings.Trim(cells[0], " `")] = strings.TrimSpace(cells[len(cells)-1])
	}
	gated := gateBounds(t, readDoc(t, ".github/workflows/ci.yml"))
	for key := range ledger {
		cell, ok := rows[key]
		if !ok {
			t.Errorf("BENCH_fit.json key %s has no row in README.md's Performance table", key)
			continue
		}
		want, ok := gated[key]
		if !ok {
			want = "ungated"
		}
		if cell != want {
			t.Errorf("README.md's row for %s gives CI bounds %q; ci.yml's gate step says %q", key, cell, want)
		}
	}
	for key := range gated {
		if _, ok := ledger[key]; !ok {
			t.Errorf("ci.yml's gate step gates %s, which BENCH_fit.json does not hold", key)
		}
	}

	commands := regexp.MustCompile(`(?m)^go test -run=xxx -bench='([^']*)' \.$`).FindAllStringSubmatch(readme, -1)
	if len(commands) != 1 {
		t.Fatalf("README.md has %d ledger regeneration commands, want one", len(commands))
	}
	named := strings.Split(commands[0][1], "|")
	benchmarks := ledgerBenchmarks(t)
	for _, name := range benchmarks {
		if !slices.Contains(named, name) {
			t.Errorf("README.md's regeneration command does not name %s", name)
		}
	}
	for _, name := range named {
		if !slices.Contains(benchmarks, name) {
			t.Errorf("README.md's regeneration command names %s, which bench_fit_test.go does not declare", name)
		}
	}
}

// ledgerKeyPattern matches a key of one of the ledger's key families
// (the part of a key before its slash).
func ledgerKeyPattern(ledger map[string]json.RawMessage) *regexp.Regexp {
	var families []string
	for key := range ledger {
		family, _, _ := strings.Cut(key, "/")
		if family = regexp.QuoteMeta(family); !slices.Contains(families, family) {
			families = append(families, family)
		}
	}
	return regexp.MustCompile(`(?:^|[^A-Za-z0-9_./-])((?:` + strings.Join(families, "|") + `)/[a-z0-9]+(?:-[a-z0-9]+)*)`)
}

// pathTail matches what follows a path segment rather than a key.
var pathTail = regexp.MustCompile(`^(/|[._]?[A-Za-z0-9])`)

// citedKeys returns the ledger-shaped keys in line, leaving out path
// segments such as infer/decode.go or hin/decode/x.
func citedKeys(keyRE *regexp.Regexp, line string) []string {
	var keys []string
	for _, m := range keyRE.FindAllStringSubmatchIndex(line, -1) {
		if pathTail.MatchString(line[m[3]:]) {
			continue
		}
		keys = append(keys, line[m[2]:m[3]])
	}
	return keys
}

// gateBounds reads ci.yml's benchgate calls, one per line once shell
// continuations are joined, and returns each gated key's bounds as
// README.md's table words them.
func gateBounds(t *testing.T, ci string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, line := range strings.Split(strings.ReplaceAll(ci, "\\\n", " "), "\n") {
		if !strings.Contains(line, "-max-ns-regress") {
			continue
		}
		var keys []string
		ns, allocs, allocsRegress := "", "", "0"
		fields := strings.Fields(line)
		for i := 0; i+1 < len(fields); i++ {
			switch fields[i] {
			case "-key":
				keys = append(keys, fields[i+1])
			case "-max-ns-regress":
				ns = fields[i+1]
			case "-max-allocs":
				allocs = fields[i+1]
			case "-max-allocs-regress":
				allocsRegress = fields[i+1]
			}
		}
		bounds := percent(t, ns) + " ns, "
		if allocs != "" {
			bounds += allocs + " allocs"
		} else {
			bounds += percent(t, allocsRegress) + " allocs"
		}
		for _, key := range keys {
			if _, dup := out[key]; dup {
				t.Errorf("ci.yml gates %s twice", key)
			}
			out[key] = bounds
		}
	}
	if len(out) == 0 {
		t.Error("ci.yml has no benchgate call")
	}
	return out
}

// percent words a fractional bound such as 0.25 as "+25%".
func percent(t *testing.T, fraction string) string {
	t.Helper()
	f, err := strconv.ParseFloat(fraction, 64)
	if err != nil {
		t.Fatalf("ci.yml bound %q: %v", fraction, err)
	}
	return fmt.Sprintf("+%g%%", 100*f)
}

// ledgerBenchmarks lists the Benchmark functions of bench_fit_test.go.
func ledgerBenchmarks(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "bench_fit_test.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, decl := range f.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Benchmark") {
			names = append(names, fn.Name.Name)
		}
	}
	if len(names) == 0 {
		t.Fatal("bench_fit_test.go declares no benchmark")
	}
	return names
}

func readDoc(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
