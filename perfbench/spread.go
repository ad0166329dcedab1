package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json the spread mode reads.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runSpread runs each workload (or only the named one) k times, with
// seeds 1..k, each in its own process, and prints every end-to-end
// metric's median, quartiles and quartile spread as a share of the
// median. A spread above the metric's bound is flagged.
func runSpread(root string, k int, only string) error {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	flagged := 0
	for _, w := range spec.Workloads {
		if only != "" && w.Name != only {
			continue
		}
		values := map[string][]float64{}
		var shares []string
		for seed := 1; seed <= k; seed++ {
			res, err := runOnce(self, root, w.Name, seed, spec.RunSeconds)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
			}
			fmt.Printf("%s seed %d: attempted %d, failed %d, correct %v\n ", w.Name, seed, res.Attempted, res.Failed, res.Correct)
			for _, m := range spec.EndToEnd {
				fmt.Printf(" %s=%.4g", m.Name, res.Metrics[m.Name].Value)
			}
			fmt.Println()
			shares = append(shares, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		fmt.Printf("\n%s: %d runs, failed/attempted %s\n", w.Name, k, strings.Join(shares, " "))
		fmt.Printf("  %-18s %12s %12s %12s %8s %6s\n", "metric", "q1", "median", "q3", "spread", "bound")
		for _, m := range spec.EndToEnd {
			xs := values[m.Name]
			if len(xs) < 2 {
				fmt.Printf("  %-18s missing\n", m.Name)
				flagged++
				continue
			}
			q := quartiles(xs)
			spread := (q[2] - q[0]) / q[1]
			mark := ""
			if spread > m.Bound {
				mark = "  EXCEEDS BOUND"
				flagged++
			}
			fmt.Printf("  %-18s %12.4f %12.4f %12.4f %8.4f %6.2f%s\n", m.Name, q[0], q[1], q[2], spread, m.Bound, mark)
		}
		fmt.Println()
	}
	if flagged > 0 {
		return fmt.Errorf("%d metric spreads exceed their bounds", flagged)
	}
	return nil
}

func runOnce(self, root, workload string, seed, seconds int) (runResult, error) {
	var out bytes.Buffer
	cmd := exec.Command(self, "-root", root, "-workload", workload, "-seed", strconv.Itoa(seed),
		"-seconds", strconv.Itoa(seconds), "-trace", "0")
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return runResult{}, err
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return runResult{}, fmt.Errorf("result line: %w", err)
	}
	return res, nil
}

// quartiles matches Python's statistics.quantiles(xs, n=4), the
// "exclusive" method.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		out[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return out
}
