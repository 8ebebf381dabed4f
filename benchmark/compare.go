package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// minRuns is how many runs of a workload a side needs before its
// median is compared.
const minRuns = 5

// resultSet is workload → end-to-end metric → one value per run.
type resultSet map[string]map[string][]float64

func readResultSet(path string) (resultSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := resultSet{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace != 0 {
			continue
		}
		if !rec.Correct || rec.Failed != 0 {
			return nil, fmt.Errorf("%s:%d: %s seed %d was not a correct run", path, line, rec.Workload, rec.Seed)
		}
		if set[rec.Workload] == nil {
			set[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Metrics {
			set[rec.Workload][name] = append(set[rec.Workload][name], m.Value)
		}
	}
	return set, sc.Err()
}

// compareFiles prints, for every workload and end-to-end metric, how
// much worse b's median is than a's, next to the bound, with a verdict:
// FAIL when worse by more than the bound, UNRESOLVED when either side
// has under minRuns runs or spreads by more than the bound (so the
// medians cannot tell), PASS otherwise. It reports whether nothing
// failed.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResultSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResultSet(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-13s %-17s %5s %13s %13s %8s %7s %7s  %s\n",
		"workload", "metric", "runs", "median a", "median b", "worse", "bound", "spread", "verdict")
	fails, unresolved := 0, 0
	for _, s := range specs {
		for _, d := range endToEnd {
			xa, xb := a[s.Name][d.Name], b[s.Name][d.Name]
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(w, "%-13s %-17s %5s %13s %13s %8s %7.3f %7s  UNRESOLVED (no runs)\n", s.Name, d.Name, "-", "-", "-", "-", d.Bound, "-")
				unresolved++
				continue
			}
			ma, mb := median(xa), median(xb)
			worse := (mb - ma) / ma
			if d.Better == higher {
				worse = -worse
			}
			sp := max(spread(xa), spread(xb))
			verdict := "PASS"
			switch {
			case len(xa) < minRuns || len(xb) < minRuns:
				verdict = fmt.Sprintf("UNRESOLVED (under %d runs)", minRuns)
			case sp > d.Bound:
				verdict = "UNRESOLVED (spread above bound)"
			case worse > d.Bound:
				verdict = "FAIL"
			case worse > d.Bound/2 || worse < -d.Bound/2:
				verdict = "PASS (differs by over half the bound)"
			}
			switch verdict[0] {
			case 'F':
				fails++
			case 'U':
				unresolved++
			}
			fmt.Fprintf(w, "%-13s %-17s %2d/%-2d %13.6g %13.6g %+8.4f %7.3f %7.4f  %s\n",
				s.Name, d.Name, len(xa), len(xb), ma, mb, worse, d.Bound, sp, verdict)
		}
	}
	fmt.Fprintf(w, "%d failed, %d unresolved\n", fails, unresolved)
	return fails == 0, nil
}
