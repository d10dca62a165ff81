package main

import (
	"io"
	"math"
	"regexp"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSmoke runs every workload, untraced and traced, at 2,000 points
// (filtered: 10,000) with a 1 s measured phase, and holds what the program emits against
// what BENCHMARK.json declares: every declared metric comes out, under
// its declared unit, finite, and nothing undeclared comes with it.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark end to end")
	}
	sp, err := loadSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, annload has %d", len(sp.Workloads), len(workloads))
	}
	endToEnd := map[string]string{}
	for _, m := range sp.EndToEnd {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("end-to-end metric %q unit %q: bad name or unit", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		endToEnd[m.Name] = m.Unit
	}
	if endToEnd["setup_s"] != "s" {
		t.Error("BENCHMARK.json must declare setup_s in s")
	}
	perLayer := map[string]string{}
	for _, m := range sp.PerLayer {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("per-layer metric %q unit %q: bad name or unit", m.Name, m.Unit)
		}
		perLayer[m.Name] = m.Unit
	}

	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name || !nameRE.MatchString(w.name) {
			t.Fatalf("workload %d: BENCHMARK.json says %q, annload says %q", i, sp.Workloads[i].Name, w.name)
		}
		for _, traced := range []bool{false, true} {
			declared := endToEnd
			if traced {
				declared = perLayer
			}
			points := 2000
			if w.tagged {
				// A 1% filter needs the full corpus to leave every query k
				// matching points within the partitions it probes.
				points = defaultPoints
			}
			cfg := runConfig{
				seed:    1,
				points:  points,
				pool:    1024,
				warmup:  200 * time.Millisecond,
				measure: time.Second,
				setups:  1,
				probe:   64,
				trace:   traced,
				outDir:  t.TempDir(),
				log:     io.Discard,
			}
			if traced {
				cfg.measure *= 2 // a traced run loads for half of it
			}
			rep, err := runWorkload(w, cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if rep.err != nil || rep.failed != 0 {
				t.Fatalf("%s traced=%v: %d of %d requests failed, check: %v", w.name, traced, rep.failed, rep.attempted, rep.err)
			}
			seen := map[string]bool{}
			for _, m := range rep.metrics {
				unit, ok := declared[m.name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: emits %s, which BENCHMARK.json does not declare", w.name, traced, m.name)
				case unit != m.unit:
					t.Errorf("%s traced=%v: %s in %s, declared in %s", w.name, traced, m.name, m.unit, unit)
				case math.IsNaN(m.value) || math.IsInf(m.value, 0):
					t.Errorf("%s traced=%v: %s is %v", w.name, traced, m.name, m.value)
				case seen[m.name]:
					t.Errorf("%s traced=%v: %s emitted twice", w.name, traced, m.name)
				}
				seen[m.name] = true
			}
			for name := range declared {
				if !seen[name] {
					t.Errorf("%s traced=%v: declared metric %s not emitted", w.name, traced, name)
				}
			}
		}
	}
}
