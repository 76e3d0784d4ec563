package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"

	"fsdep/bench/stats"
)

// agreeMain compares two files of -out records, metric by metric and
// workload by workload, against the bounds in BENCHMARK.json. A is the
// parent (or the first set), B the change (or the second set); runs
// pair up in file order. It exits 1 when any metric regresses beyond
// its bound or spreads too wide to tell, or any run was incorrect.
func agreeMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: fsdepbench agree A.jsonl B.jsonl")
		return 2
	}
	sp, err := loadSpec(specFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fsdepbench:", err)
		return 1
	}
	a, errA := readRecords(args[0])
	b, errB := readRecords(args[1])
	if errA != nil || errB != nil {
		fmt.Fprintln(os.Stderr, "fsdepbench:", errA, errB)
		return 1
	}
	bad := 0
	fmt.Printf("%-8s %-14s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median A", "median B", "worse", "IQR/m A", "IQR/m B", "wins", "verdict")
	for _, w := range sp.Workloads {
		ra, rb := a[w.Name], b[w.Name]
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Printf("%-8s no untraced runs in %s\n", w.Name, map[bool]string{true: "A", false: "B"}[len(ra) == 0])
			bad++
			continue
		}
		for _, set := range [][]result{ra, rb} {
			for _, r := range set {
				if !r.Correct || r.Failed > 0 {
					fmt.Printf("%-8s has an incorrect run (%d of %d operations failed)\n", w.Name, r.Failed, r.Attempted)
					bad++
				}
			}
		}
		for _, m := range sp.EndToEnd {
			c := stats.Compare(values(ra, m.Name), values(rb, m.Name), stats.Rule{
				LowerIsBetter: m.Better == "lower", Bound: m.Bound,
			})
			fmt.Printf("%-8s %-14s %12.4f %12.4f %7.1f%% %7.1f%% %7.1f%% %3d/%-2d  %s\n",
				w.Name, m.Name, c.ParentMedian, c.ChangeMedian, 100*c.Worse,
				100*c.ParentSpread, 100*c.ChangeSpread, c.Wins, c.Pairs, c.Verdict)
			if c.Verdict == stats.Regression || c.Verdict == stats.Unresolved {
				bad++
			}
		}
	}
	if bad > 0 {
		fmt.Printf("disagree: %d finding(s)\n", bad)
		return 1
	}
	fmt.Println("agree")
	return 0
}

// readRecords loads the untraced results of an -out file by workload,
// in file order.
func readRecords(path string) (map[string][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !rec.Trace {
			out[rec.Workload] = append(out[rec.Workload], rec.Result)
		}
	}
	return out, sc.Err()
}

func values(rs []result, name string) []float64 {
	var v []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}
