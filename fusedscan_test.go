package fusedscan

import (
	"math/rand"
	"strings"
	"testing"
)

// buildTestEngine creates an engine with one deterministic two-column
// table of n rows: a matches 5 on ~selA of rows, b matches 2 on ~selB.
func buildTestEngine(t *testing.T, n int, selA, selB float64) (*Engine, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	av := make([]int32, n)
	bv := make([]int32, n)
	want := 0
	for i := 0; i < n; i++ {
		if rng.Float64() < selA {
			av[i] = 5
		} else {
			av[i] = int32(rng.Intn(50)) + 100
		}
		if rng.Float64() < selB {
			bv[i] = 2
		} else {
			bv[i] = int32(rng.Intn(50)) + 100
		}
		if av[i] == 5 && bv[i] == 2 {
			want++
		}
	}
	eng := NewEngine()
	tb := eng.CreateTable("tbl")
	tb.Int32("a", av)
	tb.Int32("b", bv)
	if err := tb.Finish(); err != nil {
		t.Fatal(err)
	}
	return eng, want
}

func TestQueryCountStar(t *testing.T) {
	eng, want := buildTestEngine(t, 20000, 0.1, 0.5)
	res, err := eng.Query("SELECT COUNT(*) FROM tbl WHERE a = 5 AND b = 2")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != int64(want) {
		t.Fatalf("count = %d, want %d", res.Count, want)
	}
	if !res.Fused {
		t.Error("default config did not use the fused scan")
	}
	if res.Report.RuntimeMs <= 0 {
		t.Error("no simulated runtime")
	}
	if res.Report.CompiledOperators != 1 {
		t.Errorf("compiled operators = %d", res.Report.CompiledOperators)
	}
}

func TestQueryResultsIdenticalAcrossConfigs(t *testing.T) {
	eng, want := buildTestEngine(t, 30000, 0.2, 0.3)
	configs := []Config{
		{Simulate: true, UseFused: true, RegisterWidth: 512},
		{Simulate: true, UseFused: true, RegisterWidth: 256},
		{Simulate: true, UseFused: true, RegisterWidth: 128},
		{Simulate: true, UseFused: true, RegisterWidth: 128, AVX2: true},
		{Simulate: true, UseFused: false, RegisterWidth: 512},
		NativeConfig(),
	}
	for _, cfg := range configs {
		if err := eng.SetConfig(cfg); err != nil {
			t.Fatal(err)
		}
		res, err := eng.Query("SELECT COUNT(*) FROM tbl WHERE a = 5 AND b = 2")
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if res.Count != int64(want) {
			t.Fatalf("%+v: count %d, want %d", cfg, res.Count, want)
		}
		if res.Fused == !cfg.UseFused {
			t.Errorf("%+v: fused flag = %v", cfg, res.Fused)
		}
	}
}

func TestQueryProjectionAndLimit(t *testing.T) {
	eng := NewEngine()
	tb := eng.CreateTable("t")
	tb.Int32("x", []int32{1, 5, 5, 2, 5})
	tb.Int64("y", []int64{10, 20, 30, 40, 50})
	if err := tb.Finish(); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query("SELECT x, y FROM t WHERE x = 5")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 3 || len(res.Rows) != 3 {
		t.Fatalf("rows = %v (count %d)", res.Rows, res.Count)
	}
	if res.Rows[0][0] != "5" || res.Rows[0][1] != "20" {
		t.Fatalf("first row = %v", res.Rows[0])
	}
	if res.Rows[2][1] != "50" {
		t.Fatalf("last row = %v", res.Rows[2])
	}

	res, err = eng.Query("SELECT * FROM t WHERE x = 5 LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || len(res.Columns) != 2 {
		t.Fatalf("limited rows = %v, columns = %v", res.Rows, res.Columns)
	}
}

func TestQueryNoWhere(t *testing.T) {
	eng := NewEngine()
	tb := eng.CreateTable("t")
	tb.Int32("x", []int32{1, 2, 3})
	if err := tb.Finish(); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 3 {
		t.Fatalf("count = %d", res.Count)
	}
	if res.Fused {
		t.Error("no predicates should not produce a fused operator")
	}
}

func TestQueryUnsatisfiablePredicatePruned(t *testing.T) {
	eng := NewEngine()
	tb := eng.CreateTable("t")
	tb.Int32("x", []int32{1, 2, 3, 4})
	if err := tb.Finish(); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query("SELECT COUNT(*) FROM t WHERE x = 99")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 0 {
		t.Fatalf("count = %d", res.Count)
	}
	ex, err := eng.ExplainQuery("SELECT COUNT(*) FROM t WHERE x = 99")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex.OptimizedPlan, "EmptyResult") {
		t.Errorf("unsatisfiable predicate not pruned:\n%s", ex.OptimizedPlan)
	}
}

func TestExplainShowsFusionAndReordering(t *testing.T) {
	// Column a matches ~50%, column b matches ~1%: the optimizer must
	// reorder b before a, then fuse.
	rng := rand.New(rand.NewSource(3))
	n := 20000
	av := make([]int32, n)
	bv := make([]int32, n)
	for i := range av {
		if rng.Float64() < 0.5 {
			av[i] = 5
		}
		if rng.Float64() < 0.01 {
			bv[i] = 2
		} else {
			bv[i] = 7
		}
	}
	eng := NewEngine()
	tb := eng.CreateTable("tbl")
	tb.Int32("a", av)
	tb.Int32("b", bv)
	if err := tb.Finish(); err != nil {
		t.Fatal(err)
	}
	ex, err := eng.ExplainQuery("SELECT COUNT(*) FROM tbl WHERE a = 5 AND b = 2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex.OptimizedPlan, "FusedTableScan") {
		t.Errorf("no fused scan in plan:\n%s", ex.OptimizedPlan)
	}
	// After reordering, b must come before a in the fused chain.
	idxB := strings.Index(ex.OptimizedPlan, "b = 2")
	idxA := strings.Index(ex.OptimizedPlan, "a = 5")
	if idxB < 0 || idxA < 0 || idxB > idxA {
		t.Errorf("predicates not reordered by selectivity:\n%s", ex.OptimizedPlan)
	}
	found := false
	for _, r := range ex.AppliedRules {
		if r == "ReorderPredicatesBySelectivity" {
			found = true
		}
	}
	if !found {
		t.Errorf("rules = %v", ex.AppliedRules)
	}
	if len(ex.JITSources) != 1 || !strings.Contains(ex.JITSources[0], "_mm512_maskz_compress_epi32") {
		t.Error("explain did not include the JIT source")
	}
	if ex.LogicalPlan == ex.OptimizedPlan {
		t.Error("optimization did not change the plan rendering")
	}
}

func TestReorderingPreservesResults(t *testing.T) {
	eng, want := buildTestEngine(t, 25000, 0.5, 0.01)
	res, err := eng.Query("SELECT COUNT(*) FROM tbl WHERE a = 5 AND b = 2")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != int64(want) {
		t.Fatalf("reordered count = %d, want %d", res.Count, want)
	}
}

func TestOperatorCacheAcrossQueries(t *testing.T) {
	eng, _ := buildTestEngine(t, 5000, 0.1, 0.1)
	if _, err := eng.Query("SELECT COUNT(*) FROM tbl WHERE a = 5 AND b = 2"); err != nil {
		t.Fatal(err)
	}
	// Different literals, same shape: must hit the operator cache.
	res, err := eng.Query("SELECT COUNT(*) FROM tbl WHERE a = 7 AND b = 9")
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.OperatorCacheHits < 1 {
		t.Errorf("cache hits = %d", res.Report.OperatorCacheHits)
	}
	if res.Report.OperatorCacheSize != 1 {
		t.Errorf("cache size = %d", res.Report.OperatorCacheSize)
	}
}

func TestNewScanDirectAPI(t *testing.T) {
	eng, want := buildTestEngine(t, 10000, 0.3, 0.4)
	res, err := eng.NewScan("tbl").Where("a", "=", "5").Where("b", "=", "2").Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want || len(res.Positions) != want {
		t.Fatalf("count = %d (positions %d), want %d", res.Count, len(res.Positions), want)
	}
	// Errors propagate.
	if _, err := eng.NewScan("missing").Where("a", "=", "1").Run(); err == nil {
		t.Error("missing table accepted")
	}
	if _, err := eng.NewScan("tbl").Where("zzz", "=", "1").Run(); err == nil {
		t.Error("missing column accepted")
	}
	if _, err := eng.NewScan("tbl").Where("a", "~", "1").Run(); err == nil {
		t.Error("bad operator accepted")
	}
	if _, err := eng.NewScan("tbl").Where("a", "=", "xyz").Run(); err == nil {
		t.Error("bad literal accepted")
	}
	if _, err := eng.NewScan("tbl").Run(); err == nil {
		t.Error("empty chain accepted")
	}
}

func TestEngineErrors(t *testing.T) {
	eng := NewEngine()
	if _, err := eng.Query("SELECT COUNT(*) FROM nope WHERE a = 1"); err == nil {
		t.Error("unknown table accepted")
	}
	tb := eng.CreateTable("t")
	tb.Int32("a", []int32{1})
	if err := tb.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Query("SELECT COUNT(*) FROM t WHERE nope = 1"); err == nil {
		t.Error("unknown column accepted")
	}
	if _, err := eng.Query("SELECT COUNT(*) FROM t WHERE a = 1.5.5"); err == nil {
		t.Error("bad literal accepted")
	}
	if err := eng.SetConfig(Config{UseFused: true, RegisterWidth: 333}); err == nil {
		t.Error("bad width accepted")
	}
	if err := eng.SetConfig(Config{UseFused: true, RegisterWidth: 512, AVX2: true}); err == nil {
		t.Error("wide AVX2 accepted")
	}
	tb2 := eng.CreateTable("t")
	tb2.Int32("a", []int32{1})
	if err := tb2.Finish(); err == nil {
		t.Error("duplicate table accepted")
	}
}

func TestTableBuilderColumnTypes(t *testing.T) {
	eng := NewEngine()
	tb := eng.CreateTable("typed")
	tb.Column("i8", "int8", []string{"-1", "2"})
	tb.Column("u16", "uint16", []string{"1000", "2"})
	tb.Column("f", "double", []string{"1.5", "-2.5"})
	if err := tb.Finish(); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query("SELECT COUNT(*) FROM typed WHERE i8 < 0 AND f > 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 1 {
		t.Fatalf("count = %d", res.Count)
	}
	// Bad type and bad literal are reported.
	bad := eng.CreateTable("bad")
	bad.Column("x", "varchar", []string{"a"})
	if err := bad.Finish(); err == nil {
		t.Error("varchar accepted")
	}
	bad2 := eng.CreateTable("bad2")
	bad2.Column("x", "int32", []string{"notanumber"})
	if err := bad2.Finish(); err == nil {
		t.Error("bad literal accepted")
	}
}

func TestPerfReportPlausibility(t *testing.T) {
	eng, _ := buildTestEngine(t, 100000, 0.5, 0.5)
	if err := eng.SetConfig(Config{Simulate: true, UseFused: false, RegisterWidth: 512}); err != nil {
		t.Fatal(err)
	}
	sisd, err := eng.Query("SELECT COUNT(*) FROM tbl WHERE a = 5 AND b = 2")
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SetConfig(DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	fused, err := eng.Query("SELECT COUNT(*) FROM tbl WHERE a = 5 AND b = 2")
	if err != nil {
		t.Fatal(err)
	}
	// At 50% selectivity the fused scan must be much faster and mispredict
	// far less — the paper's headline result, end to end through SQL.
	if fused.Report.RuntimeMs >= sisd.Report.RuntimeMs/2 {
		t.Errorf("fused %.3f ms vs SISD %.3f ms: less than 2x",
			fused.Report.RuntimeMs, sisd.Report.RuntimeMs)
	}
	if fused.Report.BranchMispredicts*5 >= sisd.Report.BranchMispredicts {
		t.Errorf("mispredicts: fused %d vs SISD %d", fused.Report.BranchMispredicts, sisd.Report.BranchMispredicts)
	}
}

func TestTableNames(t *testing.T) {
	eng := NewEngine()
	for _, n := range []string{"zeta", "alpha"} {
		tb := eng.CreateTable(n)
		tb.Int32("x", []int32{1})
		if err := tb.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	names := eng.TableNames()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "zeta" {
		t.Fatalf("names = %v", names)
	}
}

func TestQueryBetween(t *testing.T) {
	eng := NewEngine()
	tb := eng.CreateTable("t")
	tb.Int32("a", []int32{1, 5, 6, 7, 8, 2})
	tb.Int32("b", []int32{2, 2, 2, 3, 2, 2})
	if err := tb.Finish(); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query("SELECT COUNT(*) FROM t WHERE a BETWEEN 5 AND 7 AND b = 2")
	if err != nil {
		t.Fatal(err)
	}
	// Rows with a in {5,6,7} and b=2: rows 1 (a=5) and 2 (a=6); row 3 has b=3.
	if res.Count != 2 {
		t.Fatalf("count = %d, want 2", res.Count)
	}
	// BETWEEN desugars into two predicates that fuse with the rest.
	ex, err := eng.ExplainQuery("SELECT COUNT(*) FROM t WHERE a BETWEEN 5 AND 7 AND b = 2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex.OptimizedPlan, "FusedTableScan") ||
		!strings.Contains(ex.OptimizedPlan, "a >= 5") ||
		!strings.Contains(ex.OptimizedPlan, "a <= 7") {
		t.Errorf("plan:\n%s", ex.OptimizedPlan)
	}
}

func TestScanChunked(t *testing.T) {
	eng, want := buildTestEngine(t, 50000, 0.2, 0.3)
	whole, err := eng.NewScan("tbl").Where("a", "=", "5").Where("b", "=", "2").Run()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MorselRows = 7000
	if err := eng.SetConfig(cfg); err != nil {
		t.Fatal(err)
	}
	chunked, err := eng.NewScan("tbl").Where("a", "=", "5").Where("b", "=", "2").Run()
	if err != nil {
		t.Fatal(err)
	}
	if chunked.Count != want || chunked.Count != whole.Count {
		t.Fatalf("chunked count %d, whole %d, want %d", chunked.Count, whole.Count, want)
	}
	for i := range whole.Positions {
		if whole.Positions[i] != chunked.Positions[i] {
			t.Fatalf("position %d differs: %d vs %d", i, whole.Positions[i], chunked.Positions[i])
		}
	}
	cfg.MorselRows = -1
	if err := eng.SetConfig(cfg); err == nil {
		t.Error("negative morsel size accepted")
	}
}

func TestQuerySum(t *testing.T) {
	eng := NewEngine()
	tb := eng.CreateTable("t")
	tb.Int32("a", []int32{5, 1, 5, 5, 2})
	tb.Int64("v", []int64{10, 100, 20, 30, 1000})
	tb.Float64("f", []float64{0.5, 9, 1.25, 2.25, 9})
	if err := tb.Finish(); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query("SELECT SUM(v) FROM t WHERE a = 5")
	if err != nil {
		t.Fatal(err)
	}
	if res.Sum != "60" || res.Count != 3 {
		t.Fatalf("sum = %q count = %d", res.Sum, res.Count)
	}
	res, err = eng.Query("SELECT SUM(f) FROM t WHERE a = 5")
	if err != nil {
		t.Fatal(err)
	}
	if res.Sum != "4" {
		t.Fatalf("float sum = %q", res.Sum)
	}
	// SUM over an empty (pruned) result is zero.
	res, err = eng.Query("SELECT SUM(v) FROM t WHERE a = 999")
	if err != nil {
		t.Fatal(err)
	}
	if res.Sum != "0" || res.Count != 0 {
		t.Fatalf("empty sum = %q count = %d", res.Sum, res.Count)
	}
	// Plain COUNT queries carry no Sum.
	res, err = eng.Query("SELECT COUNT(*) FROM t WHERE a = 5")
	if err != nil {
		t.Fatal(err)
	}
	if res.Sum != "" {
		t.Fatalf("count query has sum %q", res.Sum)
	}
	// Unknown column errors.
	if _, err := eng.Query("SELECT SUM(zzz) FROM t"); err == nil {
		t.Error("unknown SUM column accepted")
	}
}

func TestScanRunParallel(t *testing.T) {
	eng, want := buildTestEngine(t, 60000, 0.2, 0.3)
	seq, err := eng.NewScan("tbl").Where("a", "=", "5").Where("b", "=", "2").Run()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Cores, cfg.MorselRows = 4, 8000
	if err := eng.SetConfig(cfg); err != nil {
		t.Fatal(err)
	}
	par, err := eng.NewScan("tbl").Where("a", "=", "5").Where("b", "=", "2").Run()
	if err != nil {
		t.Fatal(err)
	}
	if par.Count != want || par.Count != seq.Count {
		t.Fatalf("parallel count %d, sequential %d, want %d", par.Count, seq.Count, want)
	}
	for i := range seq.Positions {
		if seq.Positions[i] != par.Positions[i] {
			t.Fatalf("position %d differs", i)
		}
	}
	if par.Report == nil || par.Report.RuntimeMs <= 0 || par.Report.RuntimeMs >= seq.Report.RuntimeMs {
		t.Fatalf("parallel report %+v, want a modelled runtime below the sequential one", par.Report)
	}
	cfg.Cores = -1
	if err := eng.SetConfig(cfg); err == nil {
		t.Error("negative core count accepted")
	}
}

func TestQueryWithNulls(t *testing.T) {
	eng := NewEngine()
	tb := eng.CreateTable("t")
	tb.Int32("a", []int32{5, 5, 5, 1, 5})
	tb.Int32("b", []int32{2, 2, 3, 2, 2})
	tb.NullsAt("a", []int{1})
	tb.NullsAt("b", []int{4})
	if err := tb.Finish(); err != nil {
		t.Fatal(err)
	}
	// Rows matching a=5 AND b=2 ignoring nulls: 0,1,4. Row 1 has a NULL,
	// row 4 has b NULL -> only row 0 matches.
	res, err := eng.Query("SELECT COUNT(*) FROM t WHERE a = 5 AND b = 2")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 1 {
		t.Fatalf("count = %d, want 1", res.Count)
	}
	// Out-of-range and unknown-column errors.
	bad := eng.CreateTable("bad")
	bad.Int32("x", []int32{1})
	bad.NullsAt("x", []int{5})
	if err := bad.Finish(); err == nil {
		t.Error("out-of-range null accepted")
	}
	bad2 := eng.CreateTable("bad2")
	bad2.Int32("x", []int32{1})
	bad2.NullsAt("zzz", []int{0})
	if err := bad2.Finish(); err == nil {
		t.Error("unknown column accepted")
	}
}

func TestSaveLoadTableAndCSV(t *testing.T) {
	eng, want := buildTestEngine(t, 5000, 0.2, 0.3)
	dir := t.TempDir()
	path := dir + "/tbl.fscn"
	if err := eng.SaveTable("tbl", path); err != nil {
		t.Fatal(err)
	}
	if err := eng.SaveTable("missing", path); err == nil {
		t.Error("saved unknown table")
	}

	eng2 := NewEngine()
	name, err := eng2.LoadTable(path)
	if err != nil {
		t.Fatal(err)
	}
	if name != "tbl" {
		t.Fatalf("loaded name %q", name)
	}
	res, err := eng2.Query("SELECT COUNT(*) FROM tbl WHERE a = 5 AND b = 2")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != int64(want) {
		t.Fatalf("loaded table count %d, want %d", res.Count, want)
	}

	// CSV import with NULLs.
	csvSrc := "x:int32,y:float64\n5,1.5\n5,\n1,2.5\n5,3.5\n"
	if err := eng2.LoadCSV(strings.NewReader(csvSrc), "csvt"); err != nil {
		t.Fatal(err)
	}
	r2, err := eng2.Query("SELECT COUNT(*) FROM csvt WHERE x = 5 AND y > 0")
	if err != nil {
		t.Fatal(err)
	}
	// Rows: (5,1.5) yes, (5,NULL) no, (1,2.5) no, (5,3.5) yes.
	if r2.Count != 2 {
		t.Fatalf("csv count = %d, want 2", r2.Count)
	}
}

func TestQueryMultipleAggregates(t *testing.T) {
	eng := NewEngine()
	tb := eng.CreateTable("t")
	tb.Int32("a", []int32{5, 5, 1, 5})
	tb.Int64("v", []int64{10, 30, 999, 20})
	tb.Float64("f", []float64{1.0, 3.0, 99, 2.0})
	if err := tb.Finish(); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query("SELECT COUNT(*), SUM(v), MIN(v), MAX(v), AVG(f) FROM t WHERE a = 5")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 3 {
		t.Fatalf("count = %d", res.Count)
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 5 {
		t.Fatalf("rows = %v", res.Rows)
	}
	row := res.Rows[0]
	wantCols := []string{"count(*)", "sum(v)", "min(v)", "max(v)", "avg(f)"}
	for i, w := range wantCols {
		if res.Columns[i] != w {
			t.Errorf("column %d = %q, want %q", i, res.Columns[i], w)
		}
	}
	if row[0] != "3" || row[1] != "60" || row[2] != "10" || row[3] != "30" || row[4] != "2" {
		t.Fatalf("aggregate row = %v", row)
	}
	if res.Sum != "60" {
		t.Fatalf("Sum convenience field = %q", res.Sum)
	}
	// MIN/MAX with NULLs skip them.
	tb2 := eng.CreateTable("t2")
	tb2.Int32("x", []int32{1, 1, 1})
	tb2.Int64("v", []int64{100, 5, 50})
	tb2.NullsAt("v", []int{1})
	if err := tb2.Finish(); err != nil {
		t.Fatal(err)
	}
	r2, err := eng.Query("SELECT MIN(v), MAX(v) FROM t2 WHERE x = 1")
	if err != nil {
		t.Fatal(err)
	}
	if r2.Rows[0][0] != "50" || r2.Rows[0][1] != "100" {
		t.Fatalf("min/max with NULL = %v", r2.Rows[0])
	}
}

func TestIsNullSQLAndScanAPI(t *testing.T) {
	eng := NewEngine()
	tb := eng.CreateTable("t")
	tb.Int32("a", []int32{5, 5, 1, 5, 5})
	tb.Int32("b", []int32{1, 2, 3, 4, 5})
	tb.NullsAt("b", []int{1, 3})
	if err := tb.Finish(); err != nil {
		t.Fatal(err)
	}
	// a = 5 on rows 0,1,3,4; b NULL on rows 1,3.
	res, err := eng.Query("SELECT COUNT(*) FROM t WHERE a = 5 AND b IS NULL")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 2 {
		t.Fatalf("IS NULL count = %d, want 2", res.Count)
	}
	res, err = eng.Query("SELECT COUNT(*) FROM t WHERE a = 5 AND b IS NOT NULL")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 2 {
		t.Fatalf("IS NOT NULL count = %d, want 2", res.Count)
	}
	// NULL tests fuse with comparisons into one operator.
	ex, err := eng.ExplainQuery("SELECT COUNT(*) FROM t WHERE a = 5 AND b IS NOT NULL")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex.OptimizedPlan, "FusedTableScan") ||
		!strings.Contains(ex.OptimizedPlan, "b IS NOT NULL") {
		t.Errorf("plan:\n%s", ex.OptimizedPlan)
	}
	if len(ex.JITKeys) != 1 || !strings.Contains(ex.JITKeys[0], "notnull") {
		t.Errorf("JIT key = %v", ex.JITKeys)
	}
	// Direct scan API.
	sres, err := eng.NewScan("t").Where("a", "=", "5").WhereIsNull("b").Run()
	if err != nil {
		t.Fatal(err)
	}
	if sres.Count != 2 || sres.Positions[0] != 1 || sres.Positions[1] != 3 {
		t.Fatalf("scan API: %+v", sres)
	}
	// IS NULL on a column without any NULLs matches nothing; IS NOT NULL
	// everything.
	r0, err := eng.Query("SELECT COUNT(*) FROM t WHERE a IS NULL")
	if err != nil {
		t.Fatal(err)
	}
	if r0.Count != 0 {
		t.Fatalf("IS NULL on non-nullable = %d", r0.Count)
	}
	r5, err := eng.Query("SELECT COUNT(*) FROM t WHERE a IS NOT NULL")
	if err != nil {
		t.Fatal(err)
	}
	if r5.Count != 5 {
		t.Fatalf("IS NOT NULL on non-nullable = %d", r5.Count)
	}
}

func TestQueryOrderBy(t *testing.T) {
	eng := NewEngine()
	tb := eng.CreateTable("t")
	tb.Int32("a", []int32{5, 5, 5, 1, 5})
	tb.Int32("v", []int32{30, 10, 40, 99, 20})
	tb.NullsAt("v", []int{2})
	if err := tb.Finish(); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query("SELECT v FROM t WHERE a = 5 ORDER BY v")
	if err != nil {
		t.Fatal(err)
	}
	// Matching rows have v = 30, 10, NULL, 20; ascending with NULLs last.
	want := []string{"10", "20", "30", "NULL"}
	for i, w := range want {
		if res.Rows[i][0] != w {
			t.Fatalf("row %d = %v, want %s (all rows %v)", i, res.Rows[i], w, res.Rows)
		}
	}
	res, err = eng.Query("SELECT v FROM t WHERE a = 5 ORDER BY v DESC LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0] != "30" || res.Rows[1][0] != "20" {
		t.Fatalf("desc limit rows = %v", res.Rows)
	}
	if _, err := eng.Query("SELECT v FROM t ORDER BY zzz"); err == nil {
		t.Error("unknown ORDER BY column accepted")
	}
	if _, err := eng.Query("SELECT COUNT(*) FROM t ORDER BY v"); err == nil {
		t.Error("ORDER BY with aggregate accepted")
	}
}
