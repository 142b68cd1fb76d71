package fusedscan

import (
	"math/rand"
	"strings"
	"testing"
)

// TestResultOperators checks the per-operator runtime counters surfaced
// by the batch pipeline: every operator reports its batches and row
// flow, and the engine-wide totals accumulate.
func TestResultOperators(t *testing.T) {
	eng, want := buildTestEngine(t, 200_000, 0.1, 0.5)
	res, err := eng.Query("SELECT COUNT(*) FROM tbl WHERE a = 5 AND b = 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Operators) < 2 {
		t.Fatalf("operators = %v, want at least aggregate over scan", res.Operators)
	}
	root := res.Operators[0]
	if !strings.Contains(root.Name, "Aggregate") {
		t.Errorf("root operator = %q, want an aggregate", root.Name)
	}
	scan := res.Operators[len(res.Operators)-1]
	if !strings.Contains(scan.Name, "TableScan") {
		t.Errorf("deepest operator = %q, want the table scan", scan.Name)
	}
	if scan.RowsIn != 200_000 {
		t.Errorf("scan rows in = %d, want the full table", scan.RowsIn)
	}
	if scan.RowsOut != int64(want) {
		t.Errorf("scan rows out = %d, want %d", scan.RowsOut, want)
	}
	wantBatches := int64((200_000 + (1<<16 - 1)) / (1 << 16))
	if scan.Batches != wantBatches {
		t.Errorf("scan batches = %d, want %d", scan.Batches, wantBatches)
	}
	for _, op := range res.Operators {
		if op.WallNs < 0 {
			t.Errorf("%s: negative wall time", op.Name)
		}
	}
	st := eng.Stats()
	if st.PipelineBatches == 0 || st.PipelineRows == 0 {
		t.Errorf("engine stats did not accumulate pipeline counters: %+v", st)
	}
}

// TestLimitShortCircuitTenMillionRows is the regression test for the
// LIMIT pushdown: LIMIT 10 over a 10M-row table where every row
// qualifies must stop after the first batch, on both the fused and the
// scalar path — verified through the scan operator's own counters, not
// timing.
func TestLimitShortCircuitTenMillionRows(t *testing.T) {
	const n = 10_000_000
	av := make([]int32, n)
	for i := range av {
		av[i] = 5
	}
	eng := NewEngine()
	tb := eng.CreateTable("big")
	tb.Int32("a", av)
	if err := tb.Finish(); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{Simulate: true, UseFused: true, RegisterWidth: 512},
		{Simulate: true, UseFused: false, RegisterWidth: 512},
		NativeConfig(),
	} {
		if err := eng.SetConfig(cfg); err != nil {
			t.Fatal(err)
		}
		res, err := eng.Query("SELECT a FROM big WHERE a = 5 LIMIT 10")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 10 || res.Count != 10 {
			t.Fatalf("fused=%v: rows=%d count=%d, want 10", cfg.UseFused, len(res.Rows), res.Count)
		}
		scan := res.Operators[len(res.Operators)-1]
		if !strings.Contains(scan.Name, "TableScan") {
			t.Fatalf("fused=%v: deepest operator = %q", cfg.UseFused, scan.Name)
		}
		if scan.Batches != 1 {
			t.Errorf("fused=%v: scan ran %d batches, want 1 — LIMIT did not short-circuit", cfg.UseFused, scan.Batches)
		}
		if scan.RowsIn >= n/100 {
			t.Errorf("fused=%v: scan consumed %d rows of %d — LIMIT did not short-circuit", cfg.UseFused, scan.RowsIn, n)
		}
	}
}

// TestScanCountersMatchSQL: the same packed-column chain run as SQL and as
// a direct Scan adds the same storage and pipeline counters to
// EngineStats. The SQL plan's aggregate root adds its own batch on top.
func TestScanCountersMatchSQL(t *testing.T) {
	const n = 150_000
	rng := rand.New(rand.NewSource(5))
	av := make([]int32, n)
	bv := make([]int32, n)
	for i := range av {
		av[i] = int32(rng.Intn(16))
		bv[i] = int32(rng.Intn(4))
	}
	eng := NewEngine()
	if err := eng.CreateTable("p").Int32("a", av).Int32("b", bv).Pack().Finish(); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{DefaultConfig(), NativeConfig()} {
		if err := eng.SetConfig(cfg); err != nil {
			t.Fatal(err)
		}
		s0 := eng.Stats()
		res, err := eng.Query("SELECT COUNT(*) FROM p WHERE a = 5 AND b = 2")
		if err != nil {
			t.Fatal(err)
		}
		s1 := eng.Stats()
		sr, err := eng.NewScan("p").Where("a", "=", "5").Where("b", "=", "2").Run()
		if err != nil {
			t.Fatal(err)
		}
		s2 := eng.Stats()
		if int64(sr.Count) != res.Count {
			t.Fatalf("simulate=%v: scan count %d, SQL count %d", cfg.Simulate, sr.Count, res.Count)
		}
		if sqlD, scanD := s1.BytesScanned-s0.BytesScanned, s2.BytesScanned-s1.BytesScanned; sqlD != scanD || scanD == 0 {
			t.Errorf("simulate=%v: BytesScanned SQL %d, scan %d", cfg.Simulate, sqlD, scanD)
		}
		if sqlD, scanD := s1.PackedScans-s0.PackedScans, s2.PackedScans-s1.PackedScans; sqlD != scanD || scanD != 1 {
			t.Errorf("simulate=%v: PackedScans SQL %d, scan %d, want 1 each", cfg.Simulate, sqlD, scanD)
		}
		sqlD := s1.PipelineBatches - s0.PipelineBatches - res.Operators[0].Batches
		if scanD := s2.PipelineBatches - s1.PipelineBatches; sqlD != scanD || scanD == 0 {
			t.Errorf("simulate=%v: PipelineBatches below the SQL root %d, scan %d", cfg.Simulate, sqlD, scanD)
		}
		if sqlD, scanD := s1.PipelineRows-s0.PipelineRows, s2.PipelineRows-s1.PipelineRows; sqlD != scanD {
			t.Errorf("simulate=%v: PipelineRows SQL %d, scan %d", cfg.Simulate, sqlD, scanD)
		}
	}
}
