package scan

import (
	"math/rand"
	"testing"

	"fusedscan/internal/column"
	"fusedscan/internal/expr"
	"fusedscan/internal/mach"
	"fusedscan/internal/vec"
)

// nullableChain builds a 2-predicate chain where both columns carry NULLs
// at random rows (including rows that would otherwise match).
func nullableChain(t *testing.T, n int, seed int64) Chain {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	space := mach.NewAddrSpace()
	var ch Chain
	for j := 0; j < 2; j++ {
		col := column.New(space, string(rune('a'+j)), expr.Int32, n)
		for i := 0; i < n; i++ {
			col.SetRaw(i, uint64(uint32(rng.Intn(4))))
			if rng.Float64() < 0.15 {
				col.SetNull(i)
			}
		}
		ch = append(ch, Pred{Col: col, Op: expr.Eq, Value: expr.NewInt(expr.Int32, 1)})
	}
	return ch
}

func TestNullRowsNeverMatch(t *testing.T) {
	space := mach.NewAddrSpace()
	col := column.FromInt32s(space, "a", []int32{5, 5, 5, 5})
	col.SetNull(1)
	col.SetNull(3)
	ch := Chain{{Col: col, Op: expr.Eq, Value: expr.NewInt(expr.Int32, 5)}}
	want := Reference(ch, true)
	if want.Count != 2 || want.Positions[0] != 0 || want.Positions[1] != 2 {
		t.Fatalf("reference with NULLs wrong: %+v", want)
	}
	// NULL never matches any operator, including <> (SQL semantics).
	for _, op := range expr.AllCmpOps() {
		chOp := Chain{{Col: col, Op: op, Value: expr.NewInt(expr.Int32, 99)}}
		ref := Reference(chOp, true)
		for _, pos := range ref.Positions {
			if pos == 1 || pos == 3 {
				t.Fatalf("op %s matched a NULL row", op)
			}
		}
	}
}

func TestNullableChainAllImplementations(t *testing.T) {
	for _, n := range []int{1, 63, 500, 3000} {
		ch := nullableChain(t, n, int64(n))
		want := Reference(ch, true)
		for _, im := range AllImpls() {
			kern, err := im.Build(ch)
			if err != nil {
				t.Fatal(err)
			}
			got := kern.Run(mach.New(mach.Default()), true)
			if !equalResults(got, want) {
				t.Fatalf("%v n=%d: count %d, want %d", im, n, got.Count, want.Count)
			}
		}
		bm, err := NewBlockMaterialized(ch, vec.W512)
		if err != nil {
			t.Fatal(err)
		}
		if got := bm.Run(mach.New(mach.Default()), true); !equalResults(got, want) {
			t.Fatalf("block n=%d: count %d, want %d", n, got.Count, want.Count)
		}
		// Chunked over views shares the parent's bitmap.
		got, err := runMorsels(ImplAVX512Fused512.Build, ch, 97, mach.New(mach.Default()), true)
		if err != nil {
			t.Fatal(err)
		}
		if !equalResults(got.Result, want) {
			t.Fatalf("chunked n=%d: count %d, want %d", n, got.Count, want.Count)
		}
	}
}

func TestNullBitmapCostsTraffic(t *testing.T) {
	// The validity bitmap is real memory: a nullable scan must move more
	// bytes than the same scan without a bitmap.
	const n = 500_000
	space := mach.NewAddrSpace()
	plain := column.New(space, "a", expr.Int32, n)
	nullable := column.New(space, "b", expr.Int32, n)
	for i := 0; i < n; i++ {
		plain.SetRaw(i, uint64(uint32(i%100)))
		nullable.SetRaw(i, uint64(uint32(i%100)))
	}
	nullable.EnsureNulls() // all valid, but the bitmap must still be read

	p := mach.Default()
	run := func(col *column.Column) uint64 {
		ch := Chain{{Col: col, Op: expr.Eq, Value: expr.NewInt(expr.Int32, 7)}}
		k, err := NewFused(ch, vec.W512, vec.IsaAVX512)
		if err != nil {
			t.Fatal(err)
		}
		cpu := mach.New(p)
		k.Run(cpu, false)
		return cpu.Finish().DRAMLines()
	}
	lp, ln := run(plain), run(nullable)
	// Bitmap adds n/8 bytes = 1/32 of the 4-byte column's lines.
	wantExtra := uint64(n / 8 / 64)
	if ln < lp+wantExtra*9/10 {
		t.Errorf("nullable scan moved %d lines, plain %d — bitmap traffic missing", ln, lp)
	}
}

func TestColumnNullAccessors(t *testing.T) {
	space := mach.NewAddrSpace()
	c := column.FromInt32s(space, "a", make([]int32, 130))
	if c.HasNulls() || c.Null(5) || c.NullCount() != 0 {
		t.Fatal("fresh column has nulls")
	}
	if got := c.ValidMask(0, 64); got != ^uint64(0) {
		t.Fatalf("no-bitmap ValidMask = %x", got)
	}
	c.SetNull(0)
	c.SetNull(64)
	c.SetNull(129)
	if !c.HasNulls() || c.NullCount() != 3 {
		t.Fatalf("null count = %d", c.NullCount())
	}
	if !c.Null(64) || c.Null(63) {
		t.Fatal("null bits wrong")
	}
	c.SetValid(64)
	if c.Null(64) || c.NullCount() != 2 {
		t.Fatal("SetValid failed")
	}
	// ValidMask across a word boundary.
	m := c.ValidMask(60, 10)
	if m != (1<<10-1)&^0 {
		// row 60..69 all valid now except none → full 10 bits
		if m != 1<<10-1 {
			t.Fatalf("ValidMask(60,10) = %b", m)
		}
	}
	c.SetNull(65)
	m = c.ValidMask(60, 10)
	if m&(1<<5) != 0 || m&(1<<4) == 0 {
		t.Fatalf("ValidMask after SetNull(65) = %b", m)
	}
	// Views share the bitmap.
	v := c.Slice(64, 130)
	if !v.Null(1) { // row 65
		t.Fatal("view does not see parent's nulls")
	}
	if v.ValidMask(0, 10)&(1<<1) != 0 {
		t.Fatal("view ValidMask wrong")
	}
}

func TestDictEncodeRejectsNullable(t *testing.T) {
	space := mach.NewAddrSpace()
	c := column.FromInt32s(space, "a", []int32{1, 2})
	c.SetNull(0)
	defer func() {
		if recover() == nil {
			t.Error("Encode accepted a nullable column")
		}
	}()
	column.Encode(space, c)
}

func TestNullTestPredicatesAllImplementations(t *testing.T) {
	for _, n := range []int{1, 100, 2000} {
		ch := nullableChain(t, n, int64(n)+99)
		// Build chains mixing comparisons with NULL tests in both orders.
		chains := []Chain{
			{{Col: ch[0].Col, Kind: expr.PredIsNull}},
			{{Col: ch[0].Col, Kind: expr.PredIsNotNull}},
			{{Col: ch[0].Col, Kind: expr.PredIsNotNull}, ch[1]},
			{ch[0], {Col: ch[1].Col, Kind: expr.PredIsNull}},
			{{Col: ch[0].Col, Kind: expr.PredIsNull}, {Col: ch[1].Col, Kind: expr.PredIsNotNull}},
		}
		for ci, chain := range chains {
			if err := chain.Validate(); err != nil {
				t.Fatalf("chain %d: %v", ci, err)
			}
			want := Reference(chain, true)
			for _, im := range AllImpls() {
				kern, err := im.Build(chain)
				if err != nil {
					t.Fatalf("chain %d %v: %v", ci, im, err)
				}
				got := kern.Run(mach.New(mach.Default()), true)
				if !equalResults(got, want) {
					t.Fatalf("chain %d %v n=%d: count %d, want %d", ci, im, n, got.Count, want.Count)
				}
			}
			bm, err := NewBlockMaterialized(chain, vec.W512)
			if err != nil {
				t.Fatal(err)
			}
			if got := bm.Run(mach.New(mach.Default()), true); !equalResults(got, want) {
				t.Fatalf("chain %d block: count %d, want %d", ci, got.Count, want.Count)
			}
		}
	}
}

func TestIsNotNullScanTouchesOnlyBitmap(t *testing.T) {
	// An IS NOT NULL-only fused scan must stream the bitmap (n/8 bytes),
	// not the values (4n bytes).
	const n = 1_000_000
	space := mach.NewAddrSpace()
	col := column.New(space, "a", expr.Int32, n)
	col.EnsureNulls()
	ch := Chain{{Col: col, Kind: expr.PredIsNotNull}}
	k, err := NewFused(ch, vec.W512, vec.IsaAVX512)
	if err != nil {
		t.Fatal(err)
	}
	cpu := mach.New(mach.Default())
	res := k.Run(cpu, false)
	if res.Count != n {
		t.Fatalf("count = %d", res.Count)
	}
	lines := cpu.Finish().DRAMLines()
	bitmapLines := uint64(n/8/64) + 2
	if lines > bitmapLines*2 {
		t.Errorf("NULL-test scan moved %d lines; bitmap alone is %d — it read the values", lines, bitmapLines)
	}
}
