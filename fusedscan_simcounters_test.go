package fusedscan

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"fusedscan/internal/lqp"
	"fusedscan/internal/mach"
	"fusedscan/internal/pqp"
	"fusedscan/internal/sqlparse"
)

// simPinQueries are the pipeline shapes whose simulated cost the machine
// model must keep reproducing exactly: each exercises a different set of
// operator charge sites (join build/probe/residual gather and kernel,
// group key and aggregate reads, sort-key reads plus the projection, and
// the index probe with its residual kernel).
var simPinQueries = []struct {
	name, sql string
	// counters pins the driver CPU's raw counters: ScalarInstrs Branches
	// Mispredicts L1Hits L2Hits L3Hits DemandDRAMLines.
	counters string
	// report pins the engine's Result.Report: Instructions Branches
	// BranchMispredicts UselessPrefetches DRAMBytes RuntimeMs
	// RuntimeCycles ComputeCycles MemCycles.
	report string
}{
	{
		name:     "join_residual_groupby",
		sql:      "SELECT f.x, SUM(d.y), COUNT(*) FROM f JOIN d ON f.k = d.k AND f.u < d.v WHERE f.x >= 1 AND d.v <= 8 GROUP BY f.x",
		counters: "96888 5439 144 40678 1150 0 2835",
		report:   "107211 5439 144 0 181440 0.02398888 59972.2 59972.2 37800",
	},
	{
		name:     "groupby",
		sql:      "SELECT x, COUNT(*), SUM(u), MIN(k) FROM f WHERE u < 5 GROUP BY x",
		counters: "27403 375 9 11320 311 0 1500",
		report:   "29654 375 9 0 96000 0.008 20000 13890.4167 20000",
	},
	{
		name:     "orderby_limit",
		sql:      "SELECT k, u FROM f WHERE x = 2 ORDER BY u DESC LIMIT 25",
		counters: "33999 375 20 1115 0 0 766",
		report:   "36238 375 20 0 49024 0.0069203 17300.75 17300.75 10213.3333",
	},
	{
		name:     "index_probe",
		sql:      "SELECT /*+ INDEX(s c) */ SUM(a) FROM s WHERE c < 300 AND a < 50",
		counters: "6859 1250 9 67 80 0 1251",
		report:   "14360 1250 9 0 80064 0.006672 16680 10520.4167 16680",
	},
}

// buildSimPinEngine is buildJoinEngine plus an indexed table s (20000
// rows: shuffled unique key c, payload a in [0,100)).
func buildSimPinEngine(t *testing.T) *Engine {
	t.Helper()
	eng, _ := buildJoinEngine(t)
	rng := rand.New(rand.NewSource(11))
	const n = 20000
	c := make([]int32, n)
	a := make([]int32, n)
	for i, p := range rng.Perm(n) {
		c[i] = int32(p)
		a[i] = int32(rng.Intn(100))
	}
	sb := eng.CreateTable("s")
	sb.Int32("c", c)
	sb.Int32("a", a)
	sb.Index("c")
	if err := sb.Finish(); err != nil {
		t.Fatal(err)
	}
	return eng
}

// driverCounters plans and runs sql the way Engine.execute does under the
// engine's (simulated) configuration and returns the final counters of
// the query's driver CPU.
func driverCounters(t *testing.T, eng *Engine, sql string) mach.Counters {
	t.Helper()
	stmt, err := sqlparse.ParseStatement(sql)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := lqp.Build(stmt.Select, eng)
	if err != nil {
		t.Fatal(err)
	}
	eng.optimizer.Optimize(plan)
	opts, err := eng.Config().options()
	if err != nil {
		t.Fatal(err)
	}
	opts.Params = eng.params
	phys, err := pqp.Translate(plan, eng.compiler, opts)
	if err != nil {
		t.Fatal(err)
	}
	cpu := mach.New(eng.params)
	if _, err := phys.Run(context.Background(), cpu); err != nil {
		t.Fatal(err)
	}
	return cpu.Finish()
}

// TestSimulatedOperatorCountersPinned pins the machine-model counters of
// join, GROUP BY, ORDER BY ... LIMIT and index-probe queries under
// DefaultConfig. The simulated instrument must not move when the native
// path changes how (or whether) it charges the machine model; a
// deliberate cost-model change updates the pinned strings.
func TestSimulatedOperatorCountersPinned(t *testing.T) {
	eng := buildSimPinEngine(t)
	for _, q := range simPinQueries {
		t.Run(q.name, func(t *testing.T) {
			c := driverCounters(t, eng, q.sql)
			gotC := fmt.Sprintf("%d %d %d %d %d %d %d",
				c.ScalarInstrs, c.Branches, c.Mispredicts,
				c.L1Hits, c.L2Hits, c.L3Hits, c.DemandDRAMLines)
			if gotC != q.counters {
				t.Errorf("driver counters = %q, want %q", gotC, q.counters)
			}
			res, err := eng.Query(q.sql)
			if err != nil {
				t.Fatal(err)
			}
			r := res.Report
			if r == nil {
				t.Fatal("simulated query returned a nil Report")
			}
			gotR := fmt.Sprintf("%d %d %d %d %d %.9g %.9g %.9g %.9g",
				r.Instructions, r.Branches, r.BranchMispredicts,
				r.UselessPrefetches, r.DRAMBytes, r.RuntimeMs,
				r.RuntimeCycles, r.ComputeCycles, r.MemCycles)
			if gotR != q.report {
				t.Errorf("Report = %q, want %q", gotR, q.report)
			}
			if strings.Contains(q.name, "index") {
				ex, err := eng.ExplainQuery(q.sql)
				if err != nil {
					t.Fatal(err)
				}
				if !strings.HasPrefix(ex.AccessPath, "index") {
					t.Errorf("access path = %q, want an index probe", ex.AccessPath)
				}
			}
		})
	}
}
