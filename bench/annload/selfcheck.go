package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// spec is the part of BENCHMARK.json, the declaration the driver and
// later PRs judge against, that the program reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// selfCheck runs every workload twice back to back on this binary and
// reports, per end-to-end metric, how far the second run is from the
// first beside the bound BENCHMARK.json gives it. It is the noise floor
// of one pair of runs; a difference over the bound fails.
func selfCheck(cfg runConfig, specPath string) (bool, error) {
	sp, err := loadSpec(specPath)
	if err != nil {
		return false, err
	}
	ok := true
	for _, w := range workloads {
		var reps [2]*report
		for i := range reps {
			if reps[i], err = runWorkload(w, cfg); err != nil {
				return false, fmt.Errorf("%s: %w", w.name, err)
			}
			if reps[i].err != nil {
				return false, fmt.Errorf("%s: %w", w.name, reps[i].err)
			}
		}
		for _, m := range sp.EndToEnd {
			a, okA := reps[0].get(m.Name)
			b, okB := reps[1].get(m.Name)
			if !okA || !okB {
				return false, fmt.Errorf("%s: metric %s not emitted", w.name, m.Name)
			}
			diff := math.Abs(b-a) / math.Abs(a)
			verdict := "ok"
			if diff > m.Bound {
				verdict, ok = "OVER", false
			}
			fmt.Fprintf(cfg.log, "selfcheck %-14s %-14s %12.4f %12.4f %-6s diff %6.2f%% bound %5.1f%% %s\n",
				w.name, m.Name, a, b, m.Unit, 100*diff, 100*m.Bound, verdict)
		}
	}
	return ok, nil
}
