package scan

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fusedscan/internal/column"
	"fusedscan/internal/expr"
	"fusedscan/internal/mach"
	"fusedscan/internal/vec"
)

// randomColumn builds a column of a random type whose values cluster in a
// small domain (so every comparison operator has interesting selectivity),
// salted with extreme values (type min/max, negative zero, NaN for floats).
func randomColumn(rng *rand.Rand, space *mach.AddrSpace, name string, t expr.Type, n int) *column.Column {
	c := column.New(space, name, t, n)
	for i := 0; i < n; i++ {
		switch r := rng.Intn(100); {
		case r < 2 && t.Float():
			c.Set(i, expr.NewFloat(t, math.NaN()))
		case r < 4 && t.Signed():
			c.Set(i, expr.NewInt(t, math.MinInt64)) // truncates to type min pattern
		case r < 6 && !t.Float() && !t.Signed():
			c.Set(i, expr.NewUint(t, math.MaxUint64))
		default:
			switch {
			case t.Float():
				c.Set(i, expr.NewFloat(t, float64(rng.Intn(9)-4)+0.5))
			case t.Signed():
				c.Set(i, expr.NewInt(t, int64(rng.Intn(9)-4)))
			default:
				c.Set(i, expr.NewUint(t, uint64(rng.Intn(9))))
			}
		}
	}
	return c
}

func randomNeedle(rng *rand.Rand, t expr.Type) expr.Value {
	switch {
	case t.Float():
		return expr.NewFloat(t, float64(rng.Intn(9)-4)+0.5)
	case t.Signed():
		return expr.NewInt(t, int64(rng.Intn(9)-4))
	default:
		return expr.NewUint(t, uint64(rng.Intn(9)))
	}
}

// TestDifferentialAllImplementations fuzzes random chains through every
// implementation, chunked execution, and the block-materialized baseline,
// comparing each against the scalar reference. This is the repository's
// main correctness sweep.
func TestDifferentialAllImplementations(t *testing.T) {
	rng := rand.New(rand.NewSource(20260705))
	trials := 120
	if testing.Short() {
		trials = 25
	}
	types := expr.AllTypes()
	ops := expr.AllCmpOps()

	for trial := 0; trial < trials; trial++ {
		n := 1 + rng.Intn(3000)
		k := 1 + rng.Intn(4)
		space := mach.NewAddrSpace()
		var ch Chain
		for j := 0; j < k; j++ {
			typ := types[rng.Intn(len(types))]
			col := randomColumn(rng, space, fmt.Sprintf("c%d", j), typ, n)
			// A third of the columns carry NULLs at ~10% of rows.
			if rng.Intn(3) == 0 {
				for i := 0; i < n; i++ {
					if rng.Intn(10) == 0 {
						col.SetNull(i)
					}
				}
			}
			// One in six predicates is a NULL test instead of a comparison.
			switch rng.Intn(6) {
			case 0:
				kind := expr.PredIsNull
				if rng.Intn(2) == 0 {
					kind = expr.PredIsNotNull
				}
				ch = append(ch, Pred{Col: col, Kind: kind})
			default:
				ch = append(ch, Pred{
					Col:   col,
					Op:    ops[rng.Intn(len(ops))],
					Value: randomNeedle(rng, typ),
				})
			}
		}
		if err := ch.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := Reference(ch, true)
		desc := func() string {
			s := fmt.Sprintf("trial %d n=%d:", trial, n)
			for _, p := range ch {
				s += fmt.Sprintf(" [%s %s %s]", p.Col.Type(), p.Op, p.Value)
			}
			return s
		}

		for _, im := range AllImpls() {
			kern, err := im.Build(ch)
			if err != nil {
				t.Fatalf("%s %v: %v", desc(), im, err)
			}
			got := kern.Run(mach.New(mach.Default()), true)
			if !equalResults(got, want) {
				t.Fatalf("%s %v: count %d, want %d", desc(), im, got.Count, want.Count)
			}
		}

		// Block-materialized baseline.
		bm, err := NewBlockMaterialized(ch, vec.W512)
		if err != nil {
			t.Fatalf("%s block: %v", desc(), err)
		}
		if got := bm.Run(mach.New(mach.Default()), true); !equalResults(got, want) {
			t.Fatalf("%s block: count %d, want %d", desc(), got.Count, want.Count)
		}

		// Chunked execution with a random chunk size.
		chunk := 1 + rng.Intn(n+10)
		got, err := runMorsels(ImplAVX512Fused512.Build, ch, chunk, mach.New(mach.Default()), true)
		if err != nil {
			t.Fatalf("%s chunked: %v", desc(), err)
		}
		if !equalResults(got.Result, want) {
			t.Fatalf("%s chunked(%d): count %d, want %d", desc(), chunk, got.Count, want.Count)
		}
	}
}

// TestDifferentialCountersAreConsistent checks machine-model invariants on
// random workloads: counters are internally consistent regardless of the
// kernel.
func TestDifferentialCountersAreConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		n := 500 + rng.Intn(5000)
		space := mach.NewAddrSpace()
		col := randomColumn(rng, space, "a", expr.Int32, n)
		colB := randomColumn(rng, space, "b", expr.Int32, n)
		ch := Chain{
			{Col: col, Op: expr.Eq, Value: randomNeedle(rng, expr.Int32)},
			{Col: colB, Op: expr.Le, Value: randomNeedle(rng, expr.Int32)},
		}
		for _, im := range AllImpls() {
			kern, _ := im.Build(ch)
			cpu := mach.New(mach.Default())
			kern.Run(cpu, false)
			c := cpu.Finish()
			if c.Mispredicts > c.Branches {
				t.Fatalf("%v: more mispredicts (%d) than branches (%d)", im, c.Mispredicts, c.Branches)
			}
			if c.ComputeCycles <= 0 && n > 0 {
				t.Fatalf("%v: no compute recorded", im)
			}
			// Demand traffic cannot exceed the total data touched plus
			// rounding (columns + bitmap-ish scratch).
			maxLines := uint64(2*n*4/64) + 64
			if im == ImplSISD || im == ImplAutoVec || true {
				if c.DemandDRAMLines > 2*maxLines {
					t.Fatalf("%v: %d demand lines for %d rows", im, c.DemandDRAMLines, n)
				}
			}
			p := mach.Default()
			r := c.Report(&p)
			if r.RuntimeCycles < r.MemCycles-1e-9 || r.RuntimeCycles < c.ComputeCycles-1e-9 {
				t.Fatalf("%v: roofline violated: runtime %v, mem %v, compute %v", im, r.RuntimeCycles, r.MemCycles, c.ComputeCycles)
			}
		}
	}
}
