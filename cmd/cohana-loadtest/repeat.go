package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func readReport(path string) (*report, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(body, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// checkRepeatFiles compares two summaries of the same commit: per workload
// and end-to-end metric both values, their relative difference and the
// metric's bound. A difference inside the bound repeats. One outside it is
// unresolved — two runs of one commit differ by more than the bound allows a
// change to, so on this metric the bound cannot tell a change from noise —
// and makes the check fail, as does any failed operation.
func checkRepeatFiles(w io.Writer, pathA, pathB string) error {
	a, err := readReport(pathA)
	if err != nil {
		return err
	}
	b, err := readReport(pathB)
	if err != nil {
		return err
	}
	other := map[string]workloadReport{}
	for _, wl := range b.Workloads {
		other[wl.Name] = wl
	}
	bad := 0
	fmt.Fprintf(w, "%-18s %-26s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "diff", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb, ok := other[wa.Name]
		if !ok {
			return fmt.Errorf("%s has no workload %s", pathB, wa.Name)
		}
		if wa.Failed+wb.Failed > 0 {
			bad++
			fmt.Fprintf(w, "%-18s failed operations: %d of %d, %d of %d\n", wa.Name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
		}
		for _, d := range endToEnd {
			va, vb := wa.Metrics[d.Name].Value, wb.Metrics[d.Name].Value
			diff := ratio(math.Abs(vb-va), va)
			verdict := "repeats"
			if diff > d.Bound || va == 0 || vb == 0 {
				verdict = "unresolved"
				bad++
			}
			fmt.Fprintf(w, "%-18s %-26s %14.4f %14.4f %8.2f%% %6.0f%%  %s\n", wa.Name, d.Name, va, vb, 100*diff, 100*d.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d workload x metric pairs do not repeat within their bound", bad)
	}
	return nil
}
