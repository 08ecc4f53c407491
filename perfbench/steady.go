package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	osexec "os/exec"
	"strconv"
	"strings"
)

// runResult is the last line a run prints.
type runResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// runSteady runs each workload as two separate sets of n untraced runs,
// each run its own process with its own seed (seed.. for the first set,
// seed+n.. for the second), and prints per metric and set the median, the
// quartiles and the spread (interquartile distance over the median). The
// sets agree when every spread but setup_s's is within the metric's
// bound, no second-set median is worse than the first by more than the
// bound, and both sets fail the same share of operations.
func runSteady(sp *spec, workload string, n int, seed int64, seconds float64, self string, pass []string) error {
	names := []string{workload}
	if workload == "" || workload == "all" {
		names = nil
		for _, w := range sp.Workloads {
			names = append(names, w.Name)
		}
	}
	agree := true
	for _, wl := range names {
		var sets [2][]runResult
		for s := 0; s < 2; s++ {
			for i := 0; i < n; i++ {
				sd := seed + int64(s*n+i)
				args := append([]string{"-workload", wl, "-seed", strconv.FormatInt(sd, 10),
					"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0"}, pass...)
				r, err := runOnce(self, args)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", wl, sd, err)
				}
				fmt.Fprintf(os.Stderr, "steady: %s set %d seed %d done\n", wl, s+1, sd)
				sets[s] = append(sets[s], r)
			}
		}
		if !report(wl, sp, sets) {
			agree = false
		}
	}
	if !agree {
		return fmt.Errorf("the two sets do not agree within the bounds")
	}
	fmt.Println("steady: the two sets agree within the bounds")
	return nil
}

func runOnce(self string, args []string) (runResult, error) {
	var out bytes.Buffer
	cmd := osexec.Command(self, args...)
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return runResult{}, err
	}
	var last string
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var r runResult
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return runResult{}, fmt.Errorf("result line %q: %w", last, err)
	}
	return r, nil
}

// spread is a set's quartiles and their distance as a share of the
// median, computed as Python's statistics.quantiles(values, n=4) would.
func spread(xs []float64) (q1, med, q3, share float64) {
	s := sorted(xs)
	q1, med, q3 = quantile(s, 1, 4), quantile(s, 2, 4), quantile(s, 3, 4)
	return q1, med, q3, (q3 - q1) / med
}

func report(wl string, sp *spec, sets [2][]runResult) bool {
	ok := true
	fmt.Printf("workload %s: %d + %d runs\n", wl, len(sets[0]), len(sets[1]))
	fmt.Printf("  %-18s %-5s %12s %12s %12s %8s %9s %6s\n", "metric", "set", "q1", "median", "q3", "spread", "worse", "bound")
	for _, m := range sp.EndToEnd {
		var meds [2]float64
		var spreads [2]float64
		var lines [2]string
		for s := 0; s < 2; s++ {
			var xs []float64
			for _, r := range sets[s] {
				xs = append(xs, r.Metrics[m.Name].Value)
			}
			q1, med, q3, sh := spread(xs)
			meds[s], spreads[s] = med, sh
			lines[s] = fmt.Sprintf("  %-18s %-5d %12.6g %12.6g %12.6g %7.2f%%", m.Name, s+1, q1, med, q3, 100*sh)
		}
		worse := (meds[1] - meds[0]) / meds[0]
		if m.Better == "higher" {
			worse = -worse
		}
		verdict := "ok"
		if worse > m.Bound || (m.Name != "setup_s" && (spreads[0] > m.Bound || spreads[1] > m.Bound)) {
			verdict, ok = "OUT", false
		} else if m.Name != "setup_s" && (spreads[0] > m.Bound/3 || spreads[1] > m.Bound/3) {
			verdict = "wide"
		}
		fmt.Println(lines[0])
		fmt.Printf("%s %8.2f%% %6.2f %s\n", lines[1], 100*worse, m.Bound, verdict)
	}
	var share [2]string
	for s := 0; s < 2; s++ {
		a, f := 0, 0
		for _, r := range sets[s] {
			a += r.Attempted
			f += r.Failed
			if !r.Correct {
				ok = false
			}
		}
		share[s] = fmt.Sprintf("%d/%d", f, a)
		if f != 0 {
			share[s] += fmt.Sprintf(" (%.6f)", float64(f)/float64(a))
		}
	}
	fmt.Printf("  failed: set 1 %s, set 2 %s\n", share[0], share[1])
	return ok
}
