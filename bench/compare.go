package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func readRecord(path string) (record, error) {
	var rec record
	data, err := os.ReadFile(path)
	if err != nil {
		return rec, err
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		return rec, fmt.Errorf("%s: %w", path, err)
	}
	return rec, nil
}

// verdict judges one end-to-end pair on the reported values. A run whose two
// halves disagree by more than the allowed worsening cannot resolve a
// difference of that size: the pair is unresolved, never unchanged.
func verdict(def metricDef, a, b stat) string {
	worse := b.Value - a.Value
	if def.Better == "higher" {
		worse = -worse
	}
	if def.Exact || def.Bound == 0 {
		switch {
		case worse == 0:
			return "unchanged"
		case worse < 0:
			return "improved"
		}
		return "regressed"
	}
	slack := math.Max(def.Bound*math.Abs(a.Value), def.Floor)
	spread := math.Max(math.Abs(a.Halves[0]-a.Halves[1]), math.Abs(b.Halves[0]-b.Halves[1]))
	switch {
	case math.Abs(worse) <= def.Floor:
		return "unchanged"
	case spread > slack:
		return "unresolved"
	case worse > slack:
		return "regressed"
	case -worse > slack:
		return "improved"
	}
	return "unchanged"
}

// compareFiles prints, per workload and end-to-end metric, both values with
// the medians and quartiles of their samples, the ratio B/A with A as its
// base, and the verdict; exact
// per-layer metrics are compared by equality. It fails when a pair
// regressed, a workload fails more often, or an exact metric moved.
func compareFiles(out io.Writer, pathA, pathB string) error {
	a, err := readRecord(pathA)
	if err != nil {
		return err
	}
	b, err := readRecord(pathB)
	if err != nil {
		return err
	}
	if a.Seed != b.Seed || a.Scale != b.Scale {
		fmt.Fprintf(out, "note: records differ in seed or scale (A: seed %d %s, B: seed %d %s); exact metrics will differ\n",
			a.Seed, a.Scale, b.Seed, b.Scale)
	}
	fmt.Fprintf(out, "A = %s (commit %s)\nB = %s (commit %s)\n", pathA, a.Commit, pathB, b.Commit)
	bad := 0
	for _, wa := range a.Workloads {
		var wb *workloadRecord
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			fmt.Fprintf(out, "\n== %s: absent from B\n", wa.Name)
			continue
		}
		fmt.Fprintf(out, "\n== %s\n%-12s %-8s %-7s %11s %34s %11s %34s %19s  %s\n", wa.Name,
			"metric", "unit", "is the", "A", "A median [q1, q3] n", "B", "B median [q1, q3] n", "B/A (base A)", "verdict")
		for _, def := range endToEnd {
			sa, okA := wa.EndToEnd[def.Name]
			sb, okB := wb.EndToEnd[def.Name]
			if !okA || !okB {
				continue
			}
			v := verdict(def, sa, sb)
			if v == "regressed" {
				bad++
			}
			fmt.Fprintf(out, "%-12s %-8s %-7s %11.6g %34s %11.6g %34s %19s  %s\n", def.Name, sa.Unit, sa.Stat,
				sa.Value, fmt.Sprintf("%.5g [%.5g, %.5g] %d", sa.Median, sa.Q1, sa.Q3, sa.N),
				sb.Value, fmt.Sprintf("%.5g [%.5g, %.5g] %d", sb.Median, sb.Q1, sb.Q3, sb.N),
				fmt.Sprintf("%.4f of %.5g", ratio(sb.Value, sa.Value), sa.Value), v)
		}
		moved := 0
		for _, def := range perLayer {
			va, okA := wa.PerLayer[def.Name]
			vb, okB := wb.PerLayer[def.Name]
			if okA && okB && va.Exact && va.Value != vb.Value {
				fmt.Fprintf(out, "exact metric moved: %-36s A %.10g  B %.10g\n", def.Name, va.Value, vb.Value)
				moved++
			}
		}
		if len(wa.PerLayer) > 0 && len(wb.PerLayer) > 0 && moved == 0 {
			fmt.Fprintln(out, "every exact per-layer metric is equal")
		}
		bad += moved
	}
	if bad > 0 {
		return fmt.Errorf("%d regressed pairs or moved exact metrics", bad)
	}
	return nil
}
