package powerperf

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// Every package under internal/ is either part of the paper's model or
// part of the serving and observation stack around it.
var (
	modelPackages = []string{
		"counters", "experiments", "fastrand", "governor", "harness", "jvm",
		"mem", "meters", "native", "pareto", "pipeline", "power", "proc",
		"report", "scaling", "sensor", "sim", "stats", "thermal", "trace",
		"workload",
	}
	servingPackages = []string{
		"chaoshttp", "cluster", "monitor", "profiling", "service", "slo",
		"store", "telemetry", "traceanalytics", "trend",
	}
	// allowedEdges are the model → serving imports that stand until a
	// refactor removes them: harness records its MeasureBatch and cell
	// spans on a telemetry.Tracer.
	allowedEdges = map[string]bool{"harness -> telemetry": true}
)

// TestModelImportsNoServingPackage enforces the layering: no model
// package's non-test files import a serving or observation package,
// except through allowedEdges. Every internal package must be listed on
// one side, and every allowed edge must still exist, so neither list
// goes stale.
func TestModelImportsNoServingPackage(t *testing.T) {
	side := map[string]string{}
	for _, p := range modelPackages {
		side[p] = "model"
	}
	for _, p := range servingPackages {
		side[p] = "serving"
	}
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if d.IsDir() && side[d.Name()] == "" {
			t.Errorf("internal/%s is neither a model nor a serving package; list it", d.Name())
		}
	}

	seen := map[string]bool{}
	fset := token.NewFileSet()
	for _, pkg := range modelPackages {
		files, err := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			t.Errorf("model package internal/%s has no Go files", pkg)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				dep, ok := strings.CutPrefix(p, "repro/internal/")
				if !ok || side[dep] != "serving" {
					continue
				}
				edge := pkg + " -> " + dep
				if allowedEdges[edge] {
					seen[edge] = true
					continue
				}
				t.Errorf("%s:%d: model package %s imports serving package %s",
					path, fset.Position(imp.Path.Pos()).Line, pkg, dep)
			}
		}
	}
	var stale []string
	for edge := range allowedEdges {
		if !seen[edge] {
			stale = append(stale, edge)
		}
	}
	sort.Strings(stale)
	for _, edge := range stale {
		t.Errorf("allowed edge %s no longer exists; delete it from allowedEdges", edge)
	}
}
