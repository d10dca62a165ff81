package exp

import (
	"fmt"
	"time"

	"repro/internal/bruteforce"
	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/metrics"
	"repro/internal/topk"
	"repro/internal/vec"
)

// Filtered serving benchmark: the same SIFT stand-in workload tagged so
// that filter expressions select a deterministic fraction of the corpus,
// swept across selectivities 100%, 10% and 1%. Each tier measures two
// strategies against exact filtered ground truth (brute force restricted
// to matching IDs):
//
//   - pushdown (the column keeps its name): Engine.SearchFiltered. Above
//     the filter planner's cut-over the predicate rides inside the
//     graph traversal, so exploration continues through non-matching
//     candidates and the collector only admits matches; below it the
//     matching rows are scored exactly from the tag postings;
//   - post-filter: the unfiltered search runs as usual and non-matching
//     hits are dropped afterwards — the naive baseline, which at low
//     selectivity returns far fewer than k valid hits.
//
// The recall gap between the two at 1% selectivity is the headline
// number for the filtered-search subsystem.

// selTier is one selectivity step of the sweep. Tags are assigned by
// global ID so membership is deterministic and reproducible: every point
// carries t100, every 10th t10, every 100th t1.
type selTier struct {
	Selectivity float64
	Filter      string
	match       func(id int64) bool
}

var selTiers = []selTier{
	{1.00, "t100=1", func(int64) bool { return true }},
	{0.10, "t10=1", func(id int64) bool { return id%10 == 0 }},
	{0.01, "t1=1", func(id int64) bool { return id%100 == 0 }},
}

// tagsFor returns the tag map the benchmark attaches to a point; the
// filtered ground truth uses the same ID rules, so the two can never
// drift apart.
func tagsFor(id int64) map[string]string {
	t := map[string]string{"t100": "1"}
	if id%10 == 0 {
		t["t10"] = "1"
	}
	if id%100 == 0 {
		t["t1"] = "1"
	}
	return t
}

// ServingBenchFiltered builds one engine over the SIFT stand-in, tags
// every point, and sweeps the selectivity tiers. Results are keyed
// "filtered_1.00", "filtered_0.10", "filtered_0.01" — the entries
// annbench -json merges into BENCH_results.json next to the unfiltered
// serving variants.
func ServingBenchFiltered(o Options) (map[string]*ServingResult, error) {
	o.fill()
	w, err := descriptorWorkload("sift", o, false)
	if err != nil {
		return nil, err
	}
	e, buildSec, err := servingEngine(w, o)
	if err != nil {
		return nil, err
	}
	for i := 0; i < w.data.Len(); i++ {
		id := w.data.ID(i)
		e.SetTags(id, tagsFor(id))
	}
	header(o.Out, "Filtered serving benchmark (pushdown vs post-filter)")
	out := make(map[string]*ServingResult, len(selTiers))
	for _, tier := range selTiers {
		res, err := measureFiltered(e, w, o, tier, buildSec)
		if err != nil {
			return nil, fmt.Errorf("selectivity %.2f: %w", tier.Selectivity, err)
		}
		out[res.Variant] = res
		printFiltered(o, w, res)
	}
	return out, nil
}

// filteredTruth computes exact ground truth restricted to the points the
// tier's filter matches, by brute-force scan over the matching subset.
func filteredTruth(w *workload, tier selTier, k int) [][]int32 {
	idx := make([]int, 0, w.data.Len())
	for i := 0; i < w.data.Len(); i++ {
		if tier.match(w.data.ID(i)) {
			idx = append(idx, i)
		}
	}
	return bruteforce.GroundTruth(w.data.Select(idx), w.queries, k, vec.L2)
}

// measureFiltered runs one selectivity tier: pushdown recall/latency
// plus the post-filter baseline recall over the same queries and truth.
func measureFiltered(e *core.Engine, w *workload, o Options, tier selTier, buildSec float64) (*ServingResult, error) {
	truth := filteredTruth(w, tier, o.K)
	f, err := filter.Parse(tier.Filter)
	if err != nil {
		return nil, err
	}
	n := w.queries.Len()

	// Pushdown: the timed path.
	results := make([][]topk.Result, n)
	lats := make([]float64, n)
	run0 := time.Now()
	for i := 0; i < n; i++ {
		q0 := time.Now()
		rs, err := e.SearchFiltered(w.queries.At(i), o.K, f)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		lats[i] = float64(time.Since(q0).Microseconds())
		results[i] = rs
	}
	wall := time.Since(run0).Seconds()

	// Post-filter baseline: unfiltered search, then drop non-matching
	// hits. Untimed — only its recall matters here.
	post := make([][]topk.Result, n)
	for i := 0; i < n; i++ {
		rs, err := e.Search(w.queries.At(i), o.K)
		if err != nil {
			return nil, fmt.Errorf("baseline query %d: %w", i, err)
		}
		kept := rs[:0]
		for _, r := range rs {
			if tier.match(r.ID) {
				kept = append(kept, r)
			}
		}
		post[i] = kept
	}

	sum := metrics.Summarize(lats)
	return &ServingResult{
		Variant:          fmt.Sprintf("filtered_%.2f", tier.Selectivity),
		Dataset:          w.name,
		Points:           w.data.Len(),
		Queries:          n,
		Dim:              w.data.Dim,
		K:                o.K,
		Partitions:       e.Partitions(),
		NProbe:           2,
		Threads:          1,
		Seed:             o.Seed,
		BuildSec:         buildSec,
		Selectivity:      tier.Selectivity,
		Filter:           tier.Filter,
		Recall:           metrics.MeanRecall(results, truth),
		PostFilterRecall: metrics.MeanRecall(post, truth),
		QPS:              float64(n) / wall,
		P50Micros:        sum.P50,
		P90Micros:        sum.P90,
		P99Micros:        sum.P99,
		MeanMicros:       sum.Mean,
		MaxMicros:        sum.Max,
	}, nil
}

func printFiltered(o Options, w *workload, res *ServingResult) {
	fmt.Fprintf(o.Out, "%-14s %s: %d points dim %d, %d queries, k=%d, filter %q (%.0f%% match)\n",
		res.Variant, w.name, res.Points, res.Dim, res.Queries, o.K, res.Filter, res.Selectivity*100)
	fmt.Fprintf(o.Out, "%-14s pushdown recall %.4f vs post-filter %.4f | %.0f QPS | p50 %.0fµs p99 %.0fµs\n",
		res.Variant, res.Recall, res.PostFilterRecall, res.QPS, res.P50Micros, res.P99Micros)
}
