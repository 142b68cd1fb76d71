package main

import (
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"testing"
	"time"

	"fusedscan"
)

func TestGeneratorsAreDeterministicPerSeed(t *testing.T) {
	if a, b := genScan(7, 1<<12), genScan(7, 1<<12); !reflect.DeepEqual(a, b) {
		t.Error("genScan: same seed, different data")
	}
	if a, b := genScan(7, 1<<12), genScan(8, 1<<12); reflect.DeepEqual(a.a, b.a) {
		t.Error("genScan: seeds 7 and 8 give the same column a")
	}
	if a, b := genPipeline(7), genPipeline(7); !reflect.DeepEqual(a, b) {
		t.Error("genPipeline: same seed, different data")
	}
	if a, b := genPipeline(7), genPipeline(8); reflect.DeepEqual(a.fk, b.fk) {
		t.Error("genPipeline: seeds 7 and 8 give the same join keys")
	}
	if a, b := genShort(7), genShort(7); !reflect.DeepEqual(a, b) {
		t.Error("genShort: same seed, different data")
	}
	if a, b := genShort(7), genShort(8); reflect.DeepEqual(a.u, b.u) {
		t.Error("genShort: seeds 7 and 8 give the same keys")
	}
}

// The checker must pass the engine's real answers and refuse a wrong
// expectation for every op kind.
func TestCheckerCatchesWrongAnswer(t *testing.T) {
	s, err := newScan(3, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	for k, kind := range scanKinds {
		if _, err := s.do(newClient(0, 1), k, nil); err != nil {
			t.Fatalf("%s: correct engine answer rejected: %v", kind, err)
		}
	}
	for i := range s.want.cnt2 {
		s.want.cnt2[i]++
		s.want.sum3[i]++
	}
	for _, kind := range []int{0, 3} { // fig7_2 checks a count, sum_fused a SUM
		if _, err := s.do(newClient(0, 1), kind, nil); !errors.Is(err, errWrong) {
			t.Errorf("%s: wrong expectation not caught, err = %v", scanKinds[kind], err)
		}
	}

	want := [][]string{{"1", "10"}, {"2", "20"}}
	if err := checkRows([][]string{{"1", "10"}, {"2", "20"}}, want); err != nil {
		t.Errorf("equal rows rejected: %v", err)
	}
	for _, got := range [][][]string{{{"1", "10"}}, {{"1", "10"}, {"2", "21"}}, {{"2", "20"}, {"1", "10"}}} {
		if err := checkRows(got, want); !errors.Is(err, errWrong) {
			t.Errorf("rows %v accepted against %v", got, want)
		}
	}
}

func TestRowSumIgnoresOrderNotContent(t *testing.T) {
	var a, b, c rowSum
	a.add("1", "2")
	a.add("3", "4")
	b.add("3", "4")
	b.add("1", "2")
	c.add("1", "2")
	c.add("3", "5")
	if a != b {
		t.Error("row order changed the checksum")
	}
	if a == c {
		t.Error("a changed value kept the checksum")
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want bool
	}{
		{200, 0.95, true}, {199, 0.95, false}, {1000, 0.99, true}, {999, 0.99, false}, {0, 0.5, false}, {20, 0.5, true}, {19, 0.5, false},
	} {
		if got := tailSupported(tc.n, tc.q); got != tc.want {
			t.Errorf("tailSupported(%d, %v) = %v, want %v", tc.n, tc.q, got, tc.want)
		}
	}
}

// A GROUP BY over a hash join whose build and probe scans are siblings:
// the engine reports WallNs inclusive of children.
var nested = []fusedscan.OperatorStats{
	{Name: "GroupBy[f.x | sum(d.w)]", Depth: 0, WallNs: 100},
	{Name: "HashJoin[f.k = d.k] (bloom transfer)", Depth: 1, WallNs: 80},
	{Name: "NativeTableScan(SWAR) on d", Path: "native", Depth: 2, WallNs: 10},
	{Name: "TableScan(f, all rows)", Depth: 2, WallNs: 30},
}

func TestOperatorSelfTime(t *testing.T) {
	// Laid out as spans under an engine call of 130ns, each operator's
	// self time is its WallNs minus its children's, and the call keeps the
	// 30ns no operator covers.
	want := []int64{20, 40, 10, 30}
	o := newTracer().begin()
	q := o.start("engine.query", 0)
	o.spans[q].Start, o.spans[q].End = 1000, 1130
	o.addOperators(nested, q)
	self := selfTimes(o.spans)
	if got := self[q]; got != 30 {
		t.Errorf("engine.query self = %d, want 30", got)
	}
	for i, w := range want {
		if got := self[q+1+i]; got != w {
			t.Errorf("%s self = %d, want %d", nested[i].Name, got, w)
		}
	}
	layers := []string{"pqp.group", "pqp.join", "scan", "scan"}
	for i, l := range layers {
		if got := o.spans[q+1+i].Name; got != l {
			t.Errorf("operator %d in layer %q, want %q", i, got, l)
		}
	}
}

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 50},
		{ID: 2, Parent: 0, Start: 40, End: 70},  // overlaps span 1
		{ID: 3, Parent: 0, Start: 90, End: 120}, // runs past the parent
		{ID: 4, Parent: 1, Start: 20, End: 30},
	}
	if got, want := selfTimes(spans), []int64{30, 30, 30, 30, 10}; !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestGuardRefusesMoreClientsThanCPUs(t *testing.T) {
	if err := checkClients(3, 2); err == nil {
		t.Error("3 clients on 2 CPUs accepted")
	}
	if err := checkClients(2, 2); err != nil {
		t.Errorf("2 clients on 2 CPUs refused: %v", err)
	}
}

// BENCHMARK.json at the repository root must list exactly the metrics the
// benchmark reports, with the same units.
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var spec struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		file []struct{ Name, Unit string }
		code []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		var got []metricDef
		for _, m := range c.file {
			got = append(got, metricDef{m.Name, m.Unit})
		}
		if !reflect.DeepEqual(got, c.code) {
			t.Errorf("BENCHMARK.json lists %v, the benchmark reports %v", got, c.code)
		}
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
}

// trace.accounted_frac sums only independently timed spans: the engine
// call's remainder (residual) is left out, so it shows as the share no
// layer explains.
func TestAccountedLeavesOutRemainders(t *testing.T) {
	o := newTracer().begin()
	o.spans[0].Start, o.spans[0].End = 0, 300
	p := o.start("sqlparse.parse", 0)
	o.spans[p].Start, o.spans[p].End = 0, 10
	e := o.start("lqp.explain", 0)
	o.spans[e].Start, o.spans[e].End = 10, 40
	q := o.start("engine.query", 0)
	o.spans[q].Start, o.spans[q].End = 40, 240
	o.addOperators([]fusedscan.OperatorStats{
		{Name: "Aggregate[sum(a)]", Depth: 0, WallNs: 100},
		{Name: "TableScan(t, all rows)", Depth: 1, WallNs: 80},
	}, q)
	o.kind = "k"
	untraced := &phaseResult{attempted: 1, wall: time.Second, samples: []sample{{kind: "k", lat: 400, wall: 400}}}
	traced := &phaseResult{attempted: 1, wall: time.Second, samples: []sample{{kind: "k", lat: 400, wall: 400}}, traces: []*opTrace{o}}
	m := metrics{}
	traceLayers(m, untraced, traced)
	// parse 10 + plan 20 + aggregate self 20 + scan self 80 = 130 of 400.
	if got := m["trace.accounted_frac"].Value; got != 130.0/400 {
		t.Errorf("trace.accounted_frac = %v, want %v", got, 130.0/400)
	}
	// The engine call's 200ns minus operators 100, parse 10 and plan 20.
	if got := m["engine.residual_us"].Value; got != 0.07 {
		t.Errorf("engine.residual_us = %v, want 0.07", got)
	}
}
