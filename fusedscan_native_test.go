package fusedscan

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// buildClusteredEngine registers a table whose column is sorted, so
// consecutive chunks cover disjoint value ranges — the layout zone-map
// pruning exists for. With 1<<20 rows and the default 1<<16-row chunks the
// scan splits into 16 chunks; a needle confined to the last one should
// prune 15 of them (93.75% >= the 90% acceptance bar).
func buildClusteredEngine(t *testing.T) (*Engine, int) {
	t.Helper()
	const n = 1 << 20
	av := make([]int32, n)
	ids := make([]int32, n)
	want := 0
	for i := range av {
		av[i] = int32(i / 1000) // sorted: chunk c covers [c*65, (c+1)*65] roughly
		ids[i] = int32(i)
		if av[i] == 1040 {
			want++
		}
	}
	eng := NewEngine()
	tb := eng.CreateTable("clustered")
	tb.Int32("a", av)
	// id is the row id, so SQL can project the qualifying positions.
	tb.Int32("id", ids)
	if err := tb.Finish(); err != nil {
		t.Fatal(err)
	}
	return eng, want
}

func scanStats(t *testing.T, res *Result) OperatorStats {
	t.Helper()
	if len(res.Operators) == 0 {
		t.Fatal("no operator stats")
	}
	s := res.Operators[len(res.Operators)-1]
	if !strings.Contains(s.Name, "TableScan") {
		t.Fatalf("deepest operator = %q, want a scan", s.Name)
	}
	return s
}

// TestNativeConfigEndToEnd runs the same query under the default
// (simulated) and native configs and checks the public contract: identical
// results, a simulated report only when Simulate is set, and the execution
// path surfaced in the operator stats.
func TestNativeConfigEndToEnd(t *testing.T) {
	eng, want := buildTestEngine(t, 30000, 0.2, 0.3)
	const q = "SELECT COUNT(*) FROM tbl WHERE a = 5 AND b = 2"

	sim, err := eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Report == nil {
		t.Fatal("simulated config produced no report")
	}
	if p := scanStats(t, sim).Path; p != "emulated" {
		t.Errorf("simulated path = %q, want emulated", p)
	}

	if err := eng.SetConfig(NativeConfig()); err != nil {
		t.Fatal(err)
	}
	nat, err := eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if nat.Count != int64(want) || nat.Count != sim.Count {
		t.Fatalf("native count %d, simulated %d, want %d", nat.Count, sim.Count, want)
	}
	if nat.Report != nil {
		t.Error("native config produced a simulated report")
	}
	if !nat.Fused {
		t.Error("native scan not reported as fused")
	}
	if p := scanStats(t, nat).Path; p != "native" {
		t.Errorf("native path = %q, want native", p)
	}
}

// TestClusteredPruningEndToEnd is the acceptance regression for zone-map
// data skipping: on clustered data with a point predicate, at least 90% of
// the chunks must be pruned — on the native path and on the emulated path,
// with identical results.
func TestClusteredPruningEndToEnd(t *testing.T) {
	eng, want := buildClusteredEngine(t)
	const q = "SELECT COUNT(*) FROM clustered WHERE a = 1040"

	for _, cfg := range []Config{DefaultConfig(), NativeConfig()} {
		if err := eng.SetConfig(cfg); err != nil {
			t.Fatal(err)
		}
		res, err := eng.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != int64(want) {
			t.Fatalf("simulate=%v: count %d, want %d", cfg.Simulate, res.Count, want)
		}
		s := scanStats(t, res)
		// 16 chunks, matches confined to one: at least 15 pruned.
		if s.ChunksPruned < 15 {
			t.Errorf("simulate=%v: pruned %d chunks, want >= 15 of 16", cfg.Simulate, s.ChunksPruned)
		}
		// Pruned chunks must not count as scanned rows.
		if s.RowsIn > 1<<17 {
			t.Errorf("simulate=%v: scan consumed %d rows despite pruning", cfg.Simulate, s.RowsIn)
		}
	}
}

// TestScanAPIPruning checks that pruning holds at every core count:
// the clustered point query gives the same count, positions, prune count,
// bytes and scan-leaf rows at Cores 1, 2 and 4, under both the simulated
// and the native config, through SQL and through the direct Scan API.
func TestScanAPIPruning(t *testing.T) {
	eng, want := buildClusteredEngine(t)
	type outcome struct {
		count     int
		positions string
		pruned    int64
		bytes     int64
		rowsIn    int64
	}
	var ref *outcome
	check := func(label string, got outcome) {
		t.Helper()
		if got.count != want || got.pruned < 15 {
			t.Errorf("%s: count %d, pruned %d chunks, want %d and >= 15 of 16", label, got.count, got.pruned, want)
		}
		if ref == nil {
			ref = &got
		} else if got != *ref {
			t.Errorf("%s: count %d pruned %d bytes %d rowsIn %d (same positions: %v), want %d %d %d %d",
				label, got.count, got.pruned, got.bytes, got.rowsIn, got.positions == ref.positions,
				ref.count, ref.pruned, ref.bytes, ref.rowsIn)
		}
	}
	for _, base := range []Config{DefaultConfig(), NativeConfig()} {
		for _, cores := range []int{1, 2, 4} {
			cfg := base
			cfg.Cores = cores
			label := fmt.Sprintf("simulate=%v cores=%d", cfg.Simulate, cores)

			res, err := eng.QueryWith(context.Background(), "SELECT id FROM clustered WHERE a = 1040", QueryOptions{Config: &cfg})
			if err != nil {
				t.Fatal(err)
			}
			ids := make([]string, len(res.Rows))
			for i, row := range res.Rows {
				ids[i] = row[0]
			}
			leaf := scanStats(t, res)
			check(label+" sql", outcome{int(res.Count), strings.Join(ids, ","), leaf.ChunksPruned, leaf.BytesScanned, leaf.RowsIn})

			if err := eng.SetConfig(cfg); err != nil {
				t.Fatal(err)
			}
			sres, err := eng.NewScan("clustered").Where("a", "=", "1040").Run()
			if err != nil {
				t.Fatal(err)
			}
			if (sres.Report != nil) != cfg.Simulate {
				t.Errorf("%s scan: report %v, want one only when simulating", label, sres.Report)
			}
			pos := make([]string, len(sres.Positions))
			for i, p := range sres.Positions {
				pos[i] = strconv.Itoa(int(p))
			}
			// The direct API reports no operator stats, so only the SQL
			// leg checks the scan leaf's RowsIn.
			check(label+" scan", outcome{sres.Count, strings.Join(pos, ","), int64(sres.ChunksPruned), sres.BytesScanned, ref.rowsIn})
		}
	}
}
