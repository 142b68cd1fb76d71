package scan

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"fusedscan/internal/column"
	"fusedscan/internal/expr"
	"fusedscan/internal/mach"
)

// TestDifferentialNative fuzzes random chains through the native SWAR
// kernel and the pruned chunked driver, comparing bit-for-bit against the
// scalar reference. Same recipe as the main differential sweep: all ten
// types, all six comparators, NULL-carrying columns, NULL-test
// predicates, and sizes that straddle the 64-row block boundary.
func TestDifferentialNative(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	trials := 150
	if testing.Short() {
		trials = 30
	}
	types := expr.AllTypes()
	ops := expr.AllCmpOps()

	// Sizes 63/64/65 and 127/128/129 exercise the partial-block tail and
	// the 8-word SWAR fast path's boundary; the rest are random.
	boundary := []int{1, 63, 64, 65, 127, 128, 129}

	for trial := 0; trial < trials; trial++ {
		var n int
		if trial < len(boundary) {
			n = boundary[trial]
		} else {
			n = 1 + rng.Intn(3000)
		}
		k := 1 + rng.Intn(4)
		space := mach.NewAddrSpace()
		var ch Chain
		for j := 0; j < k; j++ {
			typ := types[rng.Intn(len(types))]
			col := randomColumn(rng, space, fmt.Sprintf("c%d", j), typ, n)
			if rng.Intn(3) == 0 {
				for i := 0; i < n; i++ {
					if rng.Intn(10) == 0 {
						col.SetNull(i)
					}
				}
			}
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
		want := Reference(ch, true)
		desc := func() string {
			s := fmt.Sprintf("trial %d n=%d:", trial, n)
			for _, p := range ch {
				if p.Kind != expr.PredCompare {
					s += fmt.Sprintf(" [%s null-test]", p.Col.Type())
					continue
				}
				s += fmt.Sprintf(" [%s %s %s]", p.Col.Type(), p.Op, p.Value)
			}
			return s
		}

		kern, err := NewNative(ch)
		if err != nil {
			t.Fatalf("%s: %v", desc(), err)
		}
		if got := kern.Run(nil, true); !equalResults(got, want) {
			t.Fatalf("%s native: count %d, want %d", desc(), got.Count, want.Count)
		}

		// Pruned chunked execution must be bit-identical too: pruning is a
		// proof, and skipped plus executed chunks must cover the table.
		chunk := 1 + rng.Intn(n+10)
		build := func(sub Chain) (Kernel, error) { return NewNative(sub) }
		got, err := runMorsels(build, ch, chunk, nil, true)
		if err != nil {
			t.Fatalf("%s chunked: %v", desc(), err)
		}
		if !equalResults(got.Result, want) {
			t.Fatalf("%s chunked(%d): count %d, want %d (pruned %d/%d)",
				desc(), chunk, got.Count, want.Count, got.Pruned, got.Morsels)
		}
		if wantChunks := (n + chunk - 1) / chunk; got.Morsels != wantChunks {
			t.Fatalf("%s chunked(%d): %d chunks, want %d", desc(), chunk, got.Morsels, wantChunks)
		}
	}
}

// TestNativePrunesClusteredData checks the zone-map skip on the layout it
// is designed for: clustered (sorted) data with a selective predicate. At
// 64 chunks with matches confined to the last one, at least 90% of the
// chunks must be pruned and the result must still be exact.
func TestNativePrunesClusteredData(t *testing.T) {
	const n = 1 << 16
	const chunk = 1 << 10 // 64 chunks
	space := mach.NewAddrSpace()
	vals := make([]int32, n)
	for i := range vals {
		vals[i] = int32(i / 100) // sorted, clustered
	}
	col := column.FromInt32s(space, "a", vals)
	needle := expr.NewInt(expr.Int32, int64(vals[n-1]))
	ch := Chain{{Col: col, Op: expr.Eq, Value: needle}}

	want := Reference(ch, true)
	build := func(sub Chain) (Kernel, error) { return NewNative(sub) }
	got, err := runMorsels(build, ch, chunk, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if !equalResults(got.Result, want) {
		t.Fatalf("count %d, want %d", got.Count, want.Count)
	}
	if got.Morsels != n/chunk {
		t.Fatalf("chunks = %d, want %d", got.Morsels, n/chunk)
	}
	if pruned := float64(got.Pruned) / float64(got.Morsels); pruned < 0.9 {
		t.Fatalf("pruned %d of %d chunks (%.0f%%), want >= 90%%",
			got.Pruned, got.Morsels, 100*pruned)
	}
}

// TestNativeDictMatchesReference runs the native dictionary kernel against
// the scalar reference and the emulated DictScan across every comparator
// and probes on, between, below and above the dictionary's values.
func TestNativeDictMatchesReference(t *testing.T) {
	col, dict := dictFixture(t, 5000, 40)
	for _, op := range expr.AllCmpOps() {
		for _, probe := range []int64{0, 5, 6, 57, 117, 200, -3} {
			v := expr.NewInt(expr.Int32, probe)
			ch := Chain{{Col: col, Op: op, Value: v}}
			want := Reference(ch, true)
			nd, err := NewNativeDict(dict, op, v)
			if err != nil {
				t.Fatal(err)
			}
			got := nd.Run(nil, true)
			if !equalResults(got, want) {
				t.Fatalf("op %s probe %d: count %d, want %d", op, probe, got.Count, want.Count)
			}
		}
	}
}

// TestNativeCountOnlyAllocs: a count-only native run must not allocate —
// the whole point of the turbo path is a steady state free of GC traffic.
func TestNativeCountOnlyAllocs(t *testing.T) {
	ch := makeIntChain(t, 1<<14, 2, 0.5, 42)
	kern, err := NewNative(ch)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() { kern.Run(nil, false) }); allocs != 0 {
		t.Fatalf("count-only native run allocates %.0f objects per run, want 0", allocs)
	}
}

// TestNativeSpeedup10x is the issue's acceptance gate: on a 1M-row
// two-predicate COUNT(*), the native path must be at least 10x faster in
// wall-clock time than the emulated fused kernel. The margin is normally
// two orders of magnitude, so 10x is safe against scheduler noise.
func TestNativeSpeedup10x(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock comparison skipped in -short")
	}
	ch := makeIntChain(t, 1<<20, 2, 0.5, 7)

	native, err := NewNative(ch)
	if err != nil {
		t.Fatal(err)
	}
	emulated, err := ImplAVX512Fused512.Build(ch)
	if err != nil {
		t.Fatal(err)
	}

	best := func(runs int, f func()) time.Duration {
		bestD := time.Duration(1<<63 - 1)
		for i := 0; i < runs; i++ {
			start := time.Now()
			f()
			if d := time.Since(start); d < bestD {
				bestD = d
			}
		}
		return bestD
	}
	// Results must agree before timing means anything.
	if n, e := native.Run(nil, false).Count, emulated.Run(mach.New(mach.Default()), false).Count; n != e {
		t.Fatalf("native count %d != emulated count %d", n, e)
	}
	emu := best(3, func() { emulated.Run(mach.New(mach.Default()), false) })
	nat := best(3, func() { native.Run(nil, false) })
	if nat <= 0 {
		nat = time.Nanosecond
	}
	if ratio := float64(emu) / float64(nat); ratio < 10 {
		t.Fatalf("native %v vs emulated %v: %.1fx, want >= 10x", nat, emu, ratio)
	} else {
		t.Logf("native %v vs emulated %v: %.0fx", nat, emu, ratio)
	}
}

func benchChain(b *testing.B, rows int) Chain {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	space := mach.NewAddrSpace()
	var ch Chain
	for j := 0; j < 2; j++ {
		vals := make([]int32, rows)
		for i := range vals {
			if rng.Float64() < 0.5 {
				vals[i] = 5
			} else {
				vals[i] = int32(rng.Intn(100)) + 10
			}
		}
		col := column.FromInt32s(space, string(rune('a'+j)), vals)
		ch = append(ch, Pred{Col: col, Op: expr.Eq, Value: expr.NewInt(expr.Int32, 5)})
	}
	return ch
}

func BenchmarkNativeTwoPredCount(b *testing.B) {
	ch := benchChain(b, 1<<20)
	kern, err := NewNative(ch)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(2 * 4 * (1 << 20))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kern.Run(nil, false)
	}
}

func BenchmarkNativeTwoPredPositions(b *testing.B) {
	ch := benchChain(b, 1<<20)
	kern, err := NewNative(ch)
	if err != nil {
		b.Fatal(err)
	}
	kern.SetSizeHint(1 << 18)
	b.SetBytes(2 * 4 * (1 << 20))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kern.Run(nil, true)
	}
}

func BenchmarkEmulatedTwoPredCount(b *testing.B) {
	ch := benchChain(b, 1<<20)
	kern, err := ImplAVX512Fused512.Build(ch)
	if err != nil {
		b.Fatal(err)
	}
	// One CPU for the whole run: allocating the machine model is per-query
	// cost, not per-chunk, and would mask the kernel's own (pooled, ~zero)
	// steady-state allocations.
	cpu := mach.New(mach.Default())
	b.SetBytes(2 * 4 * (1 << 20))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kern.Run(cpu, false)
	}
}

// TestFusedSteadyStateAllocs: with the run-state pool warm and a live CPU,
// a count-only emulated fused run must be allocation-free in the steady
// state (the occasional fraction comes from the CPU's stream/region
// tables growing amortized across runs).
func TestFusedSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race; alloc count is meaningless")
	}
	ch := makeIntChain(t, 1<<14, 2, 0.5, 43)
	kern, err := ImplAVX512Fused512.Build(ch)
	if err != nil {
		t.Fatal(err)
	}
	cpu := mach.New(mach.Default())
	kern.Run(cpu, false) // warm the pool
	if allocs := testing.AllocsPerRun(50, func() { kern.Run(cpu, false) }); allocs > 1 {
		t.Fatalf("steady-state fused run allocates %.2f objects per run, want ~0", allocs)
	}
}
