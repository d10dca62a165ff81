package core

import (
	"flag"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/topk"
)

// Golden table for the master's healthy batch path: what every routed
// task cost, which worker ran it, and what each query got back, pinned
// as literals so a change to dispatch, replica choice or result
// collection shows up as a diff. Regenerate with
//
//	go test ./internal/core -run TestGoldenHealthyBatch -golden-print
//
// and paste the printed table over goldenRows and goldenResults.

var goldenPrint = flag.Bool("golden-print", false, "print the healthy-batch golden table as Go literals instead of checking it")

// goldenCase is one cluster layout the table covers.
type goldenCase struct {
	name       string
	partitions int
	cpn        int
	repl       int
	routing    RoutingMode
}

var goldenCases = []goldenCase{
	{"P4-r1", 4, 1, 1, RouteTop},
	{"P4-r3", 4, 1, 3, RouteTop},
	{"P8-cpn2-r3", 8, 2, 3, RouteTop},
	{"P4-adaptive", 4, 1, 1, RouteAdaptive},
}

// goldenRow is what one layout's batch reports. results indexes
// goldenResults (layouts that search the same partitions share a table).
type goldenRow struct {
	dispatched         int64
	perWorkerQueries   []int64
	perWorkerDistComps []int64
	distComps, hops    int64
	results            int
}

type goldenHit struct {
	id   int64
	dist float32
}

// goldenPrebuilt caches the prebuilt indexes by partition count: the
// layouts share two builds.
var goldenPrebuilt = map[int]*Prebuilt{}

// goldenBatch runs one healthy batch of layout gc on a prebuilt cluster.
func goldenBatch(t *testing.T, gc goldenCase, oneSided bool, timeout time.Duration) *BatchResult {
	t.Helper()
	ds := clustered(t, 1600, 8, 1, 61)
	qs := dataset.PerturbedQueries(ds, 24, 0.05, 62)
	pre := goldenPrebuilt[gc.partitions]
	if pre == nil {
		pre = buildPrebuilt(t, ds, gc.partitions, DefaultConfig(gc.partitions))
		goldenPrebuilt[gc.partitions] = pre
	}
	cfg := DefaultConfig(gc.partitions)
	cfg.K = 5
	cfg.CoresPerNode = gc.cpn
	cfg.Replication = gc.repl
	cfg.Routing = gc.routing
	cfg.OneSided = oneSided
	cfg.QueryTimeout = timeout
	w := cluster.NewWorld(gc.partitions/gc.cpn + 1)
	var res *BatchResult
	err := w.Run(func(c *cluster.Comm) error {
		return RunClusterPrebuilt(c, pre, cfg, func(m *Master) error {
			r, err := m.Search(qs)
			res = r
			return err
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// goldenHits sorts each query's results by (distance, ID).
func goldenHits(rows [][]topk.Result) [][]goldenHit {
	out := make([][]goldenHit, len(rows))
	for i, rs := range rows {
		hs := make([]goldenHit, len(rs))
		for j, r := range rs {
			hs[j] = goldenHit{r.ID, r.Dist}
		}
		sort.Slice(hs, func(a, b int) bool {
			if hs[a].dist != hs[b].dist {
				return hs[a].dist < hs[b].dist
			}
			return hs[a].id < hs[b].id
		})
		out[i] = hs
	}
	return out
}

// hitsMatch compares one query's sorted results with the golden ones.
// Distances must agree position by position; IDs must too, except that
// one ID among those tied at the k-th distance may differ (equal-distance
// ties at the boundary resolve by arrival order).
func hitsMatch(got, want []goldenHit) bool {
	if len(got) != len(want) {
		return false
	}
	if len(want) == 0 {
		return true
	}
	kth := want[len(want)-1].dist
	tied := map[int64]bool{}
	for i := range want {
		if got[i].dist != want[i].dist {
			return false
		}
		if want[i].dist == kth {
			tied[want[i].id] = true
		} else if got[i].id != want[i].id {
			return false
		}
	}
	miss := 0
	for _, h := range got {
		if h.dist == kth && !tied[h.id] {
			miss++
		}
	}
	return miss <= 1
}

func TestGoldenHealthyBatch(t *testing.T) {
	if *goldenPrint {
		printGolden(t)
		return
	}
	variants := []struct {
		oneSided bool
		timeout  time.Duration
	}{
		{true, 0},
		{false, 0},
		// A round deadline changes nothing on a healthy batch.
		{false, 5 * time.Second},
	}
	for i, gc := range goldenCases {
		want := goldenRows[i]
		for _, v := range variants {
			name := fmt.Sprintf("%s/oneSided=%v/timeout=%v", gc.name, v.oneSided, v.timeout)
			t.Run(name, func(t *testing.T) {
				res := goldenBatch(t, gc, v.oneSided, v.timeout)
				if res.Degraded || res.Failovers != 0 || res.Retries != 0 {
					t.Fatalf("healthy batch reported faults: degraded=%v failovers=%d retries=%d",
						res.Degraded, res.Failovers, res.Retries)
				}
				got := goldenRow{
					dispatched:         res.Dispatched,
					perWorkerQueries:   res.PerWorkerQueries,
					perWorkerDistComps: res.PerWorkerDistComps,
					distComps:          res.Work.DistComps,
					hops:               res.Work.Hops,
					results:            want.results,
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("got  %+v\nwant %+v", got, want)
				}
				hits := goldenHits(res.Results)
				table := goldenResults[want.results]
				if len(hits) != len(table) {
					t.Fatalf("%d result rows, want %d", len(hits), len(table))
				}
				for qi := range table {
					if !hitsMatch(hits[qi], table[qi]) {
						t.Errorf("query %d: got %v, want %v", qi, hits[qi], table[qi])
					}
				}
			})
		}
	}
}

// printGolden runs every layout two-sided with no round deadline and
// prints goldenRows and goldenResults in Go syntax.
func printGolden(t *testing.T) {
	var rows, tables strings.Builder
	var seen [][][]goldenHit
	for _, gc := range goldenCases {
		res := goldenBatch(t, gc, false, 0)
		hits := goldenHits(res.Results)
		idx := -1
		for i, s := range seen {
			if reflect.DeepEqual(s, hits) {
				idx = i
			}
		}
		if idx < 0 {
			idx = len(seen)
			seen = append(seen, hits)
			fmt.Fprintf(&tables, "\t// %d\n\t{\n", idx)
			for _, hs := range hits {
				tables.WriteString("\t\t{")
				for j, h := range hs {
					if j > 0 {
						tables.WriteString(", ")
					}
					fmt.Fprintf(&tables, "{%d, %v}", h.id, h.dist)
				}
				tables.WriteString("},\n")
			}
			tables.WriteString("\t},\n")
		}
		fmt.Fprintf(&rows, "\t// %s\n\t{%d, %#v, %#v, %d, %d, %d},\n", gc.name, res.Dispatched,
			res.PerWorkerQueries, res.PerWorkerDistComps, res.Work.DistComps, res.Work.Hops, idx)
	}
	fmt.Printf("var goldenRows = []goldenRow{\n%s}\n\nvar goldenResults = [][][]goldenHit{\n%s}\n",
		rows.String(), tables.String())
}

// Captured two-sided with QueryTimeout = 0 back when that setting
// selected a separate wait-forever master loop; the one batch loop
// reproduces it exactly.
var goldenRows = []goldenRow{
	// P4-r1
	{48, []int64{14, 11, 15, 8}, []int64{4726, 3563, 4917, 2697}, 15903, 3241, 0},
	// P4-r3
	{48, []int64{13, 11, 13, 11}, []int64{4401, 3641, 4268, 3593}, 15903, 3241, 0},
	// P8-cpn2-r3
	{48, []int64{11, 11, 13, 13}, []int64{2354, 2299, 2707, 2725}, 10085, 3222, 1},
	// P4-adaptive
	{92, []int64{24, 23, 24, 21}, []int64{7980, 7599, 8011, 7187}, 30777, 6216, 2},
}

var goldenResults = [][][]goldenHit{
	// 0
	{
		{{96, 0.16003774}, {692, 3.4196422}, {301, 3.9354026}, {289, 4.393257}, {181, 4.5558853}},
		{{520, 0.1621477}, {57, 2.3625684}, {465, 3.473193}, {404, 3.6731148}, {1561, 3.7258146}},
		{{1536, 0.15666181}, {768, 3.3311071}, {1532, 4.1083574}, {742, 4.268466}, {215, 4.3715634}},
		{{188, 0.12294355}, {1531, 3.7989821}, {1384, 3.8882425}, {1186, 4.0049453}, {731, 4.314362}},
		{{1253, 0.13574691}, {490, 1.9740393}, {632, 3.1783538}, {1020, 3.6013846}, {66, 3.736072}},
		{{1216, 0.2063406}, {175, 5.9136696}, {1027, 6.161944}, {287, 6.3078027}, {931, 6.644341}},
		{{1369, 0.14121097}, {887, 3.7788858}, {604, 5.4708056}, {108, 5.7134686}, {598, 5.82787}},
		{{469, 0.098940276}, {77, 7.73614}, {701, 7.773958}, {1044, 8.21928}, {1029, 8.818643}},
		{{750, 0.13527578}, {982, 4.327898}, {1474, 4.9509377}, {1425, 5.1258564}, {1021, 5.1965714}},
		{{740, 0.15364423}, {387, 3.5761452}, {300, 4.5542974}, {1119, 5.0350356}, {523, 5.2389812}},
		{{862, 0.16611715}, {57, 3.252433}, {1419, 3.468545}, {1294, 3.6429908}, {345, 3.6657565}},
		{{1211, 0.15580674}, {1036, 4.2317924}, {822, 4.2829423}, {194, 4.6383343}, {607, 4.7727013}},
		{{1362, 0.14985935}, {1411, 3.4708273}, {1034, 3.4766698}, {628, 3.835582}, {874, 4.715851}},
		{{330, 0.1505405}, {900, 3.3849251}, {615, 3.4477432}, {45, 3.70594}, {1354, 4.185809}},
		{{787, 0.16033511}, {899, 4.5961256}, {823, 4.916512}, {112, 5.1089244}, {232, 5.1423445}},
		{{46, 0.11351357}, {1118, 3.587887}, {1205, 4.772571}, {653, 5.6186867}, {242, 5.6336155}},
		{{1299, 0.13990308}, {559, 5.7983265}, {1315, 6.096862}, {1105, 6.1001697}, {1575, 6.29459}},
		{{550, 0.116415784}, {1522, 2.980615}, {811, 3.1347847}, {1124, 3.781174}, {1348, 4.0270786}},
		{{1186, 0.16072191}, {1384, 3.8192124}, {188, 3.9273}, {1441, 4.173512}, {56, 4.187191}},
		{{263, 0.16704944}, {1071, 3.3082583}, {129, 3.3150961}, {290, 4.44731}, {695, 4.5907655}},
		{{860, 0.10733352}, {318, 3.8632202}, {850, 4.166778}, {1158, 4.2542987}, {249, 4.409775}},
		{{159, 0.17325345}, {821, 2.9800646}, {64, 3.2972913}, {346, 4.573397}, {39, 4.7983317}},
		{{1009, 0.12122372}, {16, 2.8929465}, {421, 4.972217}, {1148, 4.9895244}, {837, 5.396618}},
		{{1099, 0.18224612}, {1371, 4.0901947}, {287, 4.3716354}, {255, 4.436079}, {145, 4.7140217}},
	},
	// 1
	{
		{{96, 0.16003774}, {692, 3.4196422}, {301, 3.9354026}, {181, 4.5558853}, {1512, 4.6254544}},
		{{520, 0.1621477}, {465, 3.473193}, {1242, 3.7872446}, {43, 3.8682015}, {162, 3.896356}},
		{{1536, 0.15666181}, {768, 3.3311071}, {1532, 4.1083574}, {742, 4.268466}, {215, 4.3715634}},
		{{188, 0.12294355}, {1123, 3.700726}, {1531, 3.7989821}, {1384, 3.8882425}, {731, 4.314362}},
		{{1253, 0.13574691}, {490, 1.9740393}, {632, 3.1783538}, {1020, 3.6013846}, {66, 3.736072}},
		{{1216, 0.2063406}, {175, 5.9136696}, {1027, 6.161944}, {931, 6.644341}, {1470, 7.000638}},
		{{1369, 0.14121097}, {887, 3.7788858}, {604, 5.4708056}, {108, 5.7134686}, {598, 5.82787}},
		{{469, 0.098940276}, {77, 7.73614}, {701, 7.773958}, {954, 11.851472}, {1417, 12.099814}},
		{{750, 0.13527578}, {982, 4.327898}, {1474, 4.9509377}, {1425, 5.1258564}, {1021, 5.1965714}},
		{{740, 0.15364423}, {1453, 6.246296}, {982, 6.2789893}, {662, 6.4935145}, {856, 6.5969577}},
		{{862, 0.16611715}, {57, 3.252433}, {1419, 3.468545}, {1294, 3.6429908}, {345, 3.6657565}},
		{{1211, 0.15580674}, {1036, 4.2317924}, {607, 4.7727013}, {1384, 5.234984}, {21, 5.286941}},
		{{1362, 0.14985935}, {1034, 3.4766698}, {628, 3.835582}, {874, 4.715851}, {140, 4.9488983}},
		{{330, 0.1505405}, {1354, 4.185809}, {1100, 4.195682}, {1413, 4.3445854}, {1232, 5.4082623}},
		{{787, 0.16033511}, {823, 4.916512}, {1555, 5.9817557}, {1358, 6.614585}, {230, 6.702062}},
		{{46, 0.11351357}, {1205, 4.772571}, {242, 5.6336155}, {1284, 5.693853}, {25, 6.2562366}},
		{{1299, 0.13990308}, {1315, 6.096862}, {1105, 6.1001697}, {1541, 6.304586}, {714, 6.43391}},
		{{550, 0.116415784}, {1522, 2.980615}, {811, 3.1347847}, {1124, 3.781174}, {164, 3.9528198}},
		{{1186, 0.16072191}, {1384, 3.8192124}, {188, 3.9273}, {1210, 4.311738}, {290, 4.465258}},
		{{263, 0.16704944}, {801, 4.416481}, {360, 4.474604}, {552, 5.108531}, {445, 5.1582294}},
		{{860, 0.10733352}, {318, 3.8632202}, {850, 4.166778}, {1158, 4.2542987}, {249, 4.409775}},
		{{159, 0.17325345}, {821, 2.9800646}, {64, 3.2972913}, {39, 4.7983317}, {67, 5.8505964}},
		{{1009, 0.12122372}, {16, 2.8929465}, {421, 4.972217}, {1148, 4.9895244}, {837, 5.396618}},
		{{1099, 0.18224612}, {255, 4.436079}, {145, 4.7140217}, {1224, 4.723329}, {34, 4.7999897}},
	},
	// 2
	{
		{{96, 0.16003774}, {692, 3.4196422}, {301, 3.9354026}, {289, 4.393257}, {181, 4.5558853}},
		{{520, 0.1621477}, {57, 2.3625684}, {465, 3.473193}, {376, 3.6210186}, {404, 3.6731148}},
		{{1536, 0.15666181}, {768, 3.3311071}, {1532, 4.1083574}, {742, 4.268466}, {215, 4.3715634}},
		{{188, 0.12294355}, {1123, 3.700726}, {1531, 3.7989821}, {1384, 3.8882425}, {1186, 4.0049453}},
		{{1253, 0.13574691}, {490, 1.9740393}, {632, 3.1783538}, {1020, 3.6013846}, {66, 3.736072}},
		{{1216, 0.2063406}, {175, 5.9136696}, {1027, 6.161944}, {1554, 6.191107}, {287, 6.3078027}},
		{{1369, 0.14121097}, {887, 3.7788858}, {604, 5.4708056}, {758, 5.475949}, {108, 5.7134686}},
		{{469, 0.098940276}, {77, 7.73614}, {701, 7.773958}, {940, 7.813251}, {1044, 8.21928}},
		{{750, 0.13527578}, {982, 4.327898}, {1474, 4.9509377}, {700, 5.0033216}, {1425, 5.1258564}},
		{{740, 0.15364423}, {387, 3.5761452}, {300, 4.5542974}, {1119, 5.0350356}, {523, 5.2389812}},
		{{862, 0.16611715}, {57, 3.252433}, {1419, 3.468545}, {1294, 3.6429908}, {345, 3.6657565}},
		{{1211, 0.15580674}, {1466, 3.74772}, {1458, 4.1524415}, {1036, 4.2317924}, {822, 4.2829423}},
		{{1362, 0.14985935}, {1411, 3.4708273}, {1034, 3.4766698}, {628, 3.835582}, {874, 4.715851}},
		{{330, 0.1505405}, {900, 3.3849251}, {615, 3.4477432}, {45, 3.70594}, {153, 4.054834}},
		{{787, 0.16033511}, {899, 4.5961256}, {823, 4.916512}, {112, 5.1089244}, {232, 5.1423445}},
		{{46, 0.11351357}, {1118, 3.587887}, {1205, 4.772571}, {1131, 5.0156364}, {594, 5.067788}},
		{{1299, 0.13990308}, {559, 5.7983265}, {1315, 6.096862}, {1105, 6.1001697}, {1575, 6.29459}},
		{{550, 0.116415784}, {1522, 2.980615}, {811, 3.1347847}, {852, 3.341426}, {1124, 3.781174}},
		{{1186, 0.16072191}, {1384, 3.8192124}, {188, 3.9273}, {1441, 4.173512}, {56, 4.187191}},
		{{263, 0.16704944}, {1071, 3.3082583}, {129, 3.3150961}, {801, 4.416481}, {290, 4.44731}},
		{{860, 0.10733352}, {41, 3.783786}, {318, 3.8632202}, {850, 4.166778}, {1158, 4.2542987}},
		{{159, 0.17325345}, {821, 2.9800646}, {64, 3.2972913}, {346, 4.573397}, {39, 4.7983317}},
		{{1009, 0.12122372}, {16, 2.8929465}, {697, 4.335316}, {421, 4.972217}, {1148, 4.9895244}},
		{{1099, 0.18224612}, {1371, 4.0901947}, {287, 4.3716354}, {255, 4.436079}, {145, 4.7140217}},
	},
}
