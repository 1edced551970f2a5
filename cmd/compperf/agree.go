package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// declaration is the part of BENCHMARK.json compperf reads.
type declaration struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readDeclaration(path string) (*declaration, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declaration
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// resultSet holds one directory's runs: every result file's metric values
// by workload, then metric.
type resultSet struct {
	values map[string]map[string][]float64
	// bad lists runs that were incorrect or had failed ops.
	bad []string
}

// readResults reads every *.json file in dir. A file's workload is its
// name up to the first dot (serve-hot.3.json is a serve-hot run); its
// result is its last non-empty line, so a saved standard output works.
func readResults(dir string) (*resultSet, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no *.json result files", dir)
	}
	rs := &resultSet{values: map[string]map[string][]float64{}}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !res.Correct || res.Failed > 0 {
			rs.bad = append(rs.bad, fmt.Sprintf("%s: correct=%v, %d of %d ops failed", path, res.Correct, res.Failed, res.Attempted))
		}
		w, _, _ := strings.Cut(filepath.Base(path), ".")
		if rs.values[w] == nil {
			rs.values[w] = map[string][]float64{}
		}
		for name, v := range res.Metrics {
			rs.values[w][name] = append(rs.values[w][name], v.Value)
		}
	}
	return rs, nil
}

// runAgree compares two directories of result files, workload by workload
// and metric by metric. It prints each side's median and quartiles and
// reports false when a median moved by more than the metric's bound, when
// an exact metric differs in any run, or when any run was wrong.
func runAgree(benchPath, dirA, dirB string, w io.Writer) (bool, error) {
	decl, err := readDeclaration(benchPath)
	if err != nil {
		return false, err
	}
	bounds := map[string]float64{}
	for _, m := range decl.EndToEnd {
		if m.Bound != nil {
			bounds[m.Name] = *m.Bound
		}
	}
	exact := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		exact[m.name] = m.exact
	}
	a, err := readResults(dirA)
	if err != nil {
		return false, err
	}
	b, err := readResults(dirB)
	if err != nil {
		return false, err
	}
	ok := true
	for _, bad := range append(a.bad, b.bad...) {
		fmt.Fprintln(w, "WRONG", bad)
		ok = false
	}
	var names []string
	for wl := range a.values {
		names = append(names, wl)
	}
	for wl := range b.values {
		if a.values[wl] == nil {
			names = append(names, wl)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-13s %-20s %-30s %-30s %8s %6s  %s\n", "workload", "metric", "A median [q1, q3] n", "B median [q1, q3] n", "change", "bound", "verdict")
	for _, wl := range names {
		metricNames := map[string]bool{}
		for m := range a.values[wl] {
			metricNames[m] = true
		}
		for m := range b.values[wl] {
			metricNames[m] = true
		}
		var ms []string
		for m := range metricNames {
			ms = append(ms, m)
		}
		sort.Strings(ms)
		for _, m := range ms {
			av, bv := a.values[wl][m], b.values[wl][m]
			verdict := "ok"
			change := math.NaN()
			bound, bounded := bounds[m]
			switch {
			case len(av) == 0 || len(bv) == 0:
				verdict = "MISSING on one side"
				ok = false
			case exact[m] && !allEqual(append(append([]float64(nil), av...), bv...)):
				verdict = "EXACT metric differs"
				ok = false
			case median(av) == median(bv):
				change = 0
			default:
				change = median(bv)/median(av) - 1
				if bounded && math.Abs(change) > bound {
					verdict = "OUT of bound"
					ok = false
				}
			}
			boundText := "-"
			if bounded {
				boundText = fmt.Sprintf("%.0f%%", bound*100)
			}
			fmt.Fprintf(w, "%-13s %-20s %-30s %-30s %+7.2f%% %6s  %s\n", wl, m, spread(av), spread(bv), change*100, boundText, verdict)
		}
	}
	return ok, nil
}

// spread renders a sample as "median [q1, q3] n".
func spread(xs []float64) string {
	switch len(xs) {
	case 0:
		return "-"
	case 1:
		return fmt.Sprintf("%.4g n=1", xs[0])
	}
	q1, med, q3, _ := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", med, q1, q3, len(xs))
}

func allEqual(xs []float64) bool {
	for _, x := range xs {
		if x != xs[0] {
			return false
		}
	}
	return true
}
