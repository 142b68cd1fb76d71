package pqp

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"fusedscan/internal/column"
	"fusedscan/internal/faultinject"
	"fusedscan/internal/govern"
	"fusedscan/internal/jit"
	"fusedscan/internal/lqp"
	"fusedscan/internal/mach"
)

// joinData keeps the generator slices so oracles can be computed without
// reading the columns back. Null masks mark NULL key cells.
type joinData struct {
	fk, fu, fx []int32
	fkNull     []bool
	dk, dv     []int32
	dy         []int64
	dkNull     []bool
}

// joinFixture builds a fact table f(k, u, x) and a dimension table
// d(k, v, y) with duplicate and NULL join keys on both sides.
func joinFixture(t *testing.T) (testCatalog, *joinData) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	space := mach.NewAddrSpace()
	jd := &joinData{}

	n := 4000
	jd.fk = make([]int32, n)
	jd.fu = make([]int32, n)
	jd.fx = make([]int32, n)
	jd.fkNull = make([]bool, n)
	for i := 0; i < n; i++ {
		jd.fk[i] = int32(rng.Intn(150)) // some keys have no partner in d
		jd.fu[i] = int32(rng.Intn(7))
		jd.fx[i] = int32(rng.Intn(4))
		jd.fkNull[i] = rng.Intn(37) == 0
	}
	f := column.NewTable(space, "f")
	fkCol := column.FromInt32s(space, "k", jd.fk)
	for i, isNull := range jd.fkNull {
		if isNull {
			fkCol.SetNull(i)
		}
	}
	f.MustAddColumn(fkCol)
	f.MustAddColumn(column.FromInt32s(space, "u", jd.fu))
	f.MustAddColumn(column.FromInt32s(space, "x", jd.fx))

	m := 300
	jd.dk = make([]int32, m)
	jd.dv = make([]int32, m)
	jd.dy = make([]int64, m)
	jd.dkNull = make([]bool, m)
	for i := 0; i < m; i++ {
		jd.dk[i] = int32(i % 120) // duplicate keys: each key ~2-3 times
		jd.dv[i] = int32(rng.Intn(11))
		jd.dy[i] = int64(i * 3)
		jd.dkNull[i] = rng.Intn(29) == 0
	}
	d := column.NewTable(space, "d")
	dkCol := column.FromInt32s(space, "k", jd.dk)
	for i, isNull := range jd.dkNull {
		if isNull {
			dkCol.SetNull(i)
		}
	}
	d.MustAddColumn(dkCol)
	d.MustAddColumn(column.FromInt32s(space, "v", jd.dv))
	d.MustAddColumn(column.FromInt64s(space, "y", jd.dy))

	return testCatalog{"f": f, "d": d}, jd
}

// oracleGroupSums is the scalar nested-loop oracle for
//
//	SELECT f.x, SUM(d.y) FROM f JOIN d ON f.k = d.k AND f.u < d.v
//	WHERE f.x >= 1 AND d.v <= 8 GROUP BY f.x
func oracleGroupSums(jd *joinData) (keys []int32, sums []int64) {
	acc := map[int32]int64{}
	for i := range jd.fk {
		if jd.fx[i] < 1 || jd.fkNull[i] {
			continue
		}
		for j := range jd.dk {
			if jd.dkNull[j] || jd.dv[j] > 8 || jd.dk[j] != jd.fk[i] || jd.fu[i] >= jd.dv[j] {
				continue
			}
			acc[jd.fx[i]] += jd.dy[j]
		}
	}
	for k := int32(0); k < 4; k++ {
		if s, ok := acc[k]; ok {
			keys = append(keys, k)
			sums = append(sums, s)
		}
	}
	return keys, sums
}

const joinGroupSQL = "SELECT f.x, SUM(d.y) FROM f JOIN d ON f.k = d.k AND f.u < d.v WHERE f.x >= 1 AND d.v <= 8 GROUP BY f.x"

func runPlan(t *testing.T, lp *lqp.Plan, opts Options) (QueryResult, *Plan) {
	t.Helper()
	pp, err := Translate(lp, jit.NewCompiler(), opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pp.Run(context.Background(), mach.New(mach.Default()))
	if err != nil {
		t.Fatal(err)
	}
	return res, pp
}

func TestJoinGroupByAgainstOracle(t *testing.T) {
	cat, jd := joinFixture(t)
	wantKeys, wantSums := oracleGroupSums(jd)
	if len(wantKeys) == 0 {
		t.Fatal("degenerate fixture: oracle has no groups")
	}

	configs := map[string]Options{
		"fused":       DefaultOptions(),
		"native":      {Native: true, Width: DefaultOptions().Width, ISA: DefaultOptions().ISA},
		"sisd":        {Width: DefaultOptions().Width, ISA: DefaultOptions().ISA},
		"small-batch": func() Options { o := DefaultOptions(); o.BatchRows = 129; return o }(), // non-power-of-two batch boundaries
		"parallel": func() Options {
			o := DefaultOptions()
			o.Cores = 3
			o.MorselRows = 517
			o.Params = mach.Default()
			return o
		}(),
	}
	for name, opts := range configs {
		t.Run(name, func(t *testing.T) {
			res, pp := runPlan(t, plan(t, cat, joinGroupSQL, true), opts)
			if len(res.Columns) != 2 || res.Columns[0] != "f.x" || res.Columns[1] != "sum(d.y)" {
				t.Fatalf("columns = %v", res.Columns)
			}
			// Both scan leaves — the build side's and the probe's — ran on
			// opts.Cores workers, and the report must count all of them.
			if wantCores := 2 * opts.Cores; opts.Cores > 1 && len(pp.PerCore()) != wantCores {
				t.Errorf("PerCore() = %d counters, want %d", len(pp.PerCore()), wantCores)
			}
			if len(res.Rows) != len(wantKeys) {
				t.Fatalf("groups = %d, want %d (rows: %v)", len(res.Rows), len(wantKeys), res.Rows)
			}
			for r := range res.Rows {
				gotKey := res.Rows[r][0].Int()
				gotSum := res.Rows[r][1].Int()
				if gotKey != int64(wantKeys[r]) || gotSum != wantSums[r] {
					t.Errorf("row %d = (%d, %d), want (%d, %d)", r, gotKey, gotSum, wantKeys[r], wantSums[r])
				}
			}
		})
	}
}

func TestJoinZeroKeyAggregateAndProjection(t *testing.T) {
	cat, jd := joinFixture(t)

	// Oracle for the un-grouped aggregate and the row projection.
	var wantCount int64
	type pair struct{ x, y int64 }
	var wantRows []pair
	for i := range jd.fk {
		if jd.fkNull[i] {
			continue
		}
		for j := range jd.dk {
			if jd.dkNull[j] || jd.dk[j] != jd.fk[i] || jd.fu[i] >= jd.dv[j] {
				continue
			}
			wantCount++
			wantRows = append(wantRows, pair{int64(jd.fx[i]), jd.dy[j]})
		}
	}

	res, _ := runPlan(t, plan(t, cat, "SELECT COUNT(*) FROM f JOIN d ON f.k = d.k AND f.u < d.v", true), DefaultOptions())
	if !res.IsAggregate || len(res.Aggregates) != 1 {
		t.Fatalf("result = %+v", res)
	}
	if got := res.Aggregates[0].Int(); got != wantCount {
		t.Fatalf("count = %d, want %d", got, wantCount)
	}
	if res.Count != wantCount {
		t.Fatalf("Count = %d, want %d", res.Count, wantCount)
	}

	res, _ = runPlan(t, plan(t, cat, "SELECT f.x, d.y FROM f JOIN d ON f.k = d.k AND f.u < d.v", true), DefaultOptions())
	if len(res.Columns) != 2 || res.Columns[0] != "f.x" || res.Columns[1] != "d.y" {
		t.Fatalf("columns = %v", res.Columns)
	}
	if int64(len(res.Rows)) != wantCount || res.Count != wantCount {
		t.Fatalf("rows = %d count = %d, want %d", len(res.Rows), res.Count, wantCount)
	}
	for r, w := range wantRows {
		if res.Rows[r][0].Int() != w.x || res.Rows[r][1].Int() != w.y {
			t.Fatalf("row %d = (%d, %d), want (%d, %d)", r, res.Rows[r][0].Int(), res.Rows[r][1].Int(), w.x, w.y)
		}
	}
}

// TestJoinBloomPrefilterReducesProbeRows is the predicate-transfer
// regression: with Transfer on, the probe-side fused chain evaluates the
// Bloom prefilter and the probe scan emits measurably fewer rows than the
// same plan with transfer disabled — the join itself then sees the reduced
// stream.
func TestJoinBloomPrefilterReducesProbeRows(t *testing.T) {
	cat, _ := joinFixture(t)
	// A highly selective build side (few distinct keys survive) makes the
	// transferred filter bite hard on the probe side.
	sql := "SELECT COUNT(*) FROM f JOIN d ON f.k = d.k WHERE f.x >= 0 AND d.v = 3"

	probeOut := func(mutate func(*lqp.Plan)) (int64, QueryResult, []OperatorStats) {
		lp := plan(t, cat, sql, true)
		if mutate != nil {
			mutate(lp)
		}
		res, pp := runPlan(t, lp, DefaultOptions())
		for _, st := range pp.OperatorStats() {
			if strings.HasPrefix(st.Name, "FusedTableScan(direct)") {
				return st.RowsOut, res, pp.OperatorStats()
			}
		}
		t.Fatalf("no probe scan in stats:\n%s", FormatStats(pp.OperatorStats()))
		return 0, QueryResult{}, nil
	}

	// Walk the whole spine (unlike pqp's findJoin, which stops at a
	// GroupBy — the aggregate here roots the plan).
	lqpJoin := func(lp *lqp.Plan) *lqp.Join {
		for n := lp.Root; n != nil; n = n.Child() {
			if j, ok := n.(*lqp.Join); ok {
				return j
			}
		}
		return nil
	}

	withBloom, resB, stats := probeOut(nil)
	withoutBloom, resN, _ := probeOut(func(lp *lqp.Plan) {
		jn := lqpJoin(lp)
		if jn == nil || !jn.Transfer {
			t.Fatal("optimizer did not mark predicate transfer")
		}
		jn.Transfer = false
	})

	if resB.Aggregates[0].Int() != resN.Aggregates[0].Int() {
		t.Fatalf("transfer changed the result: %d vs %d", resB.Aggregates[0].Int(), resN.Aggregates[0].Int())
	}
	if withBloom >= withoutBloom {
		t.Fatalf("bloom did not reduce probe rows: %d (with) vs %d (without)", withBloom, withoutBloom)
	}
	var joinStats *OperatorStats
	for i := range stats {
		if strings.HasPrefix(stats[i].Name, "HashJoin") {
			joinStats = &stats[i]
		}
	}
	if joinStats == nil {
		t.Fatalf("no join stats:\n%s", FormatStats(stats))
	}
	if joinStats.BloomChecks == 0 || joinStats.BloomPass >= joinStats.BloomChecks {
		t.Errorf("bloom counters: pass=%d checks=%d", joinStats.BloomPass, joinStats.BloomChecks)
	}
	if joinStats.ProbeRows != withBloom {
		t.Errorf("join probe rows = %d, probe scan emitted %d", joinStats.ProbeRows, withBloom)
	}
	if joinStats.BuildRows == 0 {
		t.Error("join build rows = 0")
	}
}

func TestJoinEmptyBuildShortCircuitsProbe(t *testing.T) {
	cat, jd := joinFixture(t)
	// Pick a v value that no d row carries but that zone maps cannot rule
	// out, so the optimizer keeps the join and the runtime path handles it.
	present := map[int32]bool{}
	for j, v := range jd.dv {
		if !jd.dkNull[j] {
			present[v] = true
		}
	}
	missing := int32(-1)
	for v := int32(0); v <= 10; v++ {
		if !present[v] {
			missing = v
			break
		}
	}
	if missing < 0 {
		// Every v in range occurs; fall back to an out-of-range literal
		// (the join then collapses at optimize time and the test only
		// checks the empty result).
		missing = 999
	}
	lp := plan(t, cat, fmt.Sprintf("SELECT COUNT(*) FROM f JOIN d ON f.k = d.k WHERE d.v = %d", missing), true)
	res, pp := runPlan(t, lp, DefaultOptions())
	if !res.IsAggregate || res.Aggregates[0].Int() != 0 {
		t.Fatalf("result = %+v", res)
	}
	// The probe side must never have been scanned.
	for _, st := range pp.OperatorStats() {
		if strings.HasPrefix(st.Name, "FusedTableScan(direct)") || strings.Contains(st.Name, "TableScan(f") {
			if st.RowsIn != 0 {
				t.Errorf("probe scan consumed %d rows despite empty build:\n%s", st.RowsIn, FormatStats(pp.OperatorStats()))
			}
		}
	}
}

// TestGroupByOverCollapsedJoin: when a build-side predicate is provably
// false (outside the zone-map range) the optimizer collapses the join to
// an EmptyResult, leaving the GroupBy referencing build-side columns
// with no join — and no build table — below it. Translation must still
// succeed and the sink must produce the correct empty result.
func TestGroupByOverCollapsedJoin(t *testing.T) {
	cat, _ := joinFixture(t)
	// d.v is always in [0, 10]: v <= -5 collapses the build side.
	grouped := plan(t, cat,
		"SELECT f.x, SUM(d.y) FROM f JOIN d ON f.k = d.k WHERE d.v <= -5 GROUP BY f.x", true)
	res, _ := runPlan(t, grouped, DefaultOptions())
	if len(res.Rows) != 0 {
		t.Fatalf("grouped rows over collapsed join = %v, want none", res.Rows)
	}
	zeroKey := plan(t, cat,
		"SELECT COUNT(*) FROM f JOIN d ON f.k = d.k WHERE d.v <= -5", true)
	res, _ = runPlan(t, zeroKey, DefaultOptions())
	if !res.IsAggregate || res.Aggregates[0].Int() != 0 {
		t.Fatalf("zero-key result over collapsed join = %+v, want COUNT 0", res)
	}
}

func TestJoinFormatAndStatsDepth(t *testing.T) {
	cat, _ := joinFixture(t)
	lp := plan(t, cat, joinGroupSQL, true)
	pp, err := Translate(lp, jit.NewCompiler(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	out := pp.Format()
	if !strings.Contains(out, "Build:") || !strings.Contains(out, "HashJoin[") || !strings.Contains(out, "GroupBy[") {
		t.Fatalf("format:\n%s", out)
	}
	if _, err := pp.Run(context.Background(), mach.New(mach.Default())); err != nil {
		t.Fatal(err)
	}
	stats := pp.OperatorStats()
	byName := map[string]OperatorStats{}
	for _, st := range stats {
		for _, prefix := range []string{"GroupBy", "HashJoin", "FusedTableScan(direct)"} {
			if strings.HasPrefix(st.Name, prefix) {
				byName[prefix] = st
			}
		}
	}
	if byName["GroupBy"].Depth != 0 {
		t.Errorf("GroupBy depth = %d", byName["GroupBy"].Depth)
	}
	if byName["HashJoin"].Depth != 1 {
		t.Errorf("HashJoin depth = %d", byName["HashJoin"].Depth)
	}
	// The build subtree is indented under the "Build:" heading (join depth
	// + 2); the probe scan continues the spine at join depth + 1.
	if byName["FusedTableScan(direct)"].Depth != 2 {
		t.Errorf("probe scan depth = %d", byName["FusedTableScan(direct)"].Depth)
	}
	if byName["GroupBy"].Groups == 0 {
		t.Error("no groups recorded")
	}
	rendered := FormatStats(stats)
	if !strings.Contains(rendered, "build=") || !strings.Contains(rendered, "groups=") {
		t.Errorf("stats rendering:\n%s", rendered)
	}
}

func TestJoinBuildMemoryBudget(t *testing.T) {
	cat, _ := joinFixture(t)
	lp := plan(t, cat, joinGroupSQL, true)
	pp, err := Translate(lp, jit.NewCompiler(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Enough budget for scan batches of the 300-row build side, not enough
	// for the retained hash table (~300 x 48 B).
	ctx := govern.WithAccountant(context.Background(), govern.NewAccountant(8<<10))
	_, err = pp.Run(ctx, mach.New(mach.Default()))
	if !errors.Is(err, govern.ErrMemoryBudget) {
		t.Fatalf("err = %v, want ErrMemoryBudget", err)
	}
}

func TestJoinFaultSitesReturnTypedErrors(t *testing.T) {
	cat, _ := joinFixture(t)
	for _, site := range []string{faultinject.SiteJoinBuildAlloc, faultinject.SiteJoinProbeBatch} {
		t.Run(site, func(t *testing.T) {
			defer faultinject.Reset()
			faultinject.Arm(site, 1, faultinject.ModeError)
			lp := plan(t, cat, joinGroupSQL, true)
			pp, err := Translate(lp, jit.NewCompiler(), DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			_, err = pp.Run(context.Background(), mach.New(mach.Default()))
			var fe *faultinject.Error
			if !errors.As(err, &fe) || fe.Site != site {
				t.Fatalf("err = %v, want injected error at %s", err, site)
			}
		})
	}
}

func TestJoinCancellation(t *testing.T) {
	cat, _ := joinFixture(t)
	lp := plan(t, cat, joinGroupSQL, true)
	pp, err := Translate(lp, jit.NewCompiler(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := pp.Run(ctx, mach.New(mach.Default())); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestJoinSelectStarQualifiesColumns(t *testing.T) {
	cat, _ := joinFixture(t)
	res, _ := runPlan(t, plan(t, cat, "SELECT * FROM f JOIN d ON f.k = d.k LIMIT 5", true), DefaultOptions())
	want := []string{"f.k", "f.u", "f.x", "d.k", "d.v", "d.y"}
	if strings.Join(res.Columns, ",") != strings.Join(want, ",") {
		t.Fatalf("columns = %v, want %v", res.Columns, want)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row[0].Int() != row[3].Int() {
			t.Fatalf("join key mismatch in row: %v", row)
		}
	}
}
