package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// benchFile is the part of BENCHMARK.json the spread check reads.
type benchFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// spread summarizes the untraced result files in dir: per workload and
// end-to-end metric, the median of the runs and the distance between their
// first and third quartiles as a share of the median, against a third of
// the metric's bound from benchPath (setup_s is exempt from the spread
// rule, as its bound only limits drift between medians).
func spread(dir, benchPath string, w io.Writer) error {
	blob, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var bf benchFile
	if err := json.Unmarshal(blob, &bf); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*-trace0-*.json"))
	if err != nil {
		return err
	}
	runs := map[string][]map[string]float64{}
	for _, f := range files {
		blob, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		var res result
		if err := json.Unmarshal(blob, &res); err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		runs[res.Workload] = append(runs[res.Workload], res.Metrics)
	}
	bad := 0
	for _, wl := range sortedKeys(runs) {
		fmt.Fprintf(w, "%s: %d runs\n", wl, len(runs[wl]))
		for _, m := range bf.EndToEnd {
			var vs []float64
			for _, r := range runs[wl] {
				vs = append(vs, r[m.Name])
			}
			q1, q2, q3 := quartiles(vs)
			sp := ratio(q3-q1, q2)
			flag := ""
			if m.Name != "setup_s" && sp > m.Bound/3 {
				flag = "  over a third of bound"
				bad++
			}
			fmt.Fprintf(w, "  %-16s median %12.4f  spread %6.3f  bound %.2f%s\n", m.Name, q2, sp, m.Bound, flag)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d spreads over a third of their bound", bad)
	}
	return nil
}
