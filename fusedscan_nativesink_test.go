package fusedscan

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"fusedscan/internal/faultinject"
	"fusedscan/internal/pqp"
)

// bytesPerOp returns the mean heap bytes allocated by one call of f,
// after a warm-up call.
func bytesPerOp(t *testing.T, runs int, f func()) float64 {
	t.Helper()
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestNativeQueryBuildsNoMachineModel checks that native execution never
// builds the simulator: a native COUNT(*) over 1K rows — through Query and
// through the NewScan builder — allocates far less than one machine model
// (whose simulated caches alone are about 5 MB) and reports no Report.
func TestNativeQueryBuildsNoMachineModel(t *testing.T) {
	eng, want := buildTestEngine(t, 1000, 0.2, 0.3)
	if err := eng.SetConfig(NativeConfig()); err != nil {
		t.Fatal(err)
	}
	const limit = 64 << 10
	const q = "SELECT COUNT(*) FROM tbl WHERE a = 5 AND b = 2"
	perQuery := bytesPerOp(t, 50, func() {
		res, err := eng.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != int64(want) {
			t.Fatalf("count = %d, want %d", res.Count, want)
		}
		if res.Report != nil {
			t.Fatal("native query returned a simulated Report")
		}
	})
	if perQuery >= limit {
		t.Errorf("native Query allocates %.0f B/op, want < %d", perQuery, limit)
	}
	perScan := bytesPerOp(t, 50, func() {
		res, err := eng.NewScan("tbl").Where("a", "=", "5").Where("b", "=", "2").Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != want {
			t.Fatalf("scan count = %d, want %d", res.Count, want)
		}
		if res.Report != nil {
			t.Fatal("native scan returned a simulated Report")
		}
	})
	if perScan >= limit {
		t.Errorf("native NewScan.Run allocates %.0f B/op, want < %d", perScan, limit)
	}
}

// buildGroupEngine registers table g with n rows: group key k in
// [0, groups) and an int64 measure v.
func buildGroupEngine(t testing.TB, n, groups int) *Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	k := make([]int32, n)
	v := make([]int64, n)
	for i := range k {
		k[i] = int32(rng.Intn(groups))
		v[i] = int64(rng.Intn(1000))
	}
	eng := NewEngine()
	tb := eng.CreateTable("g")
	tb.Int32("k", k)
	tb.Int64("v", v)
	if err := tb.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := eng.SetConfig(NativeConfig()); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestNativeGroupByAllocationsScaleWithGroups checks that a native GROUP
// BY allocates per group and per batch, not per input row: between 20K and
// 200K input rows over the same 100 groups the allocation count may grow
// by less than 0.1 per extra row.
func TestNativeGroupByAllocationsScaleWithGroups(t *testing.T) {
	const q = "SELECT k, COUNT(*), SUM(v) FROM g WHERE v < 990 GROUP BY k"
	allocs := func(n int) float64 {
		eng := buildGroupEngine(t, n, 100)
		return testing.AllocsPerRun(5, func() {
			res, err := eng.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 100 {
				t.Fatalf("%d groups, want 100", len(res.Rows))
			}
		})
	}
	const small, large = 20000, 200000
	aSmall, aLarge := allocs(small), allocs(large)
	slope := (aLarge - aSmall) / float64(large-small)
	t.Logf("allocs/query: %.0f at %d rows, %.0f at %d rows (%.4f per extra row)", aSmall, small, aLarge, large, slope)
	if slope >= 0.1 {
		t.Errorf("GROUP BY allocates %.3f per extra input row, want < 0.1", slope)
	}
}

// TestNativeSISDFallbackNilSink runs multi-predicate chains whose SISD
// kernel charges Branch, PredictTaken and SpeculativePrefetch on the
// native path, where the CPU is the nil sink: with UseFused off (ignored
// natively) and through the injected compile failure that degrades the
// native scan to SISD, at 1 and 2 cores. Rows must match the simulated
// configuration.
func TestNativeSISDFallbackNilSink(t *testing.T) {
	faultinject.Reset()
	t.Cleanup(faultinject.Reset)
	eng, _ := buildTestEngine(t, 40000, 0.3, 0.5)
	queries := []string{
		"SELECT a, b FROM tbl WHERE a = 5 AND b = 2",
		"SELECT COUNT(*) FROM tbl WHERE a = 5 AND b = 2",
		"SELECT SUM(b) FROM tbl WHERE b = 2 AND a = 5 AND b < 100",
	}
	want := make([]*Result, len(queries))
	for i, q := range queries {
		res, err := eng.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	for _, cores := range []int{1, 2} {
		for _, degrade := range []bool{false, true} {
			cfg := NativeConfig()
			cfg.Cores, cfg.MorselRows = cores, 8192
			cfg.UseFused = degrade // off on the plain leg; the fault degrades the other
			for i, q := range queries {
				t.Run(fmt.Sprintf("cores=%d/degraded=%v/q%d", cores, degrade, i), func(t *testing.T) {
					if degrade {
						faultinject.Arm(faultinject.SiteJITCompile, 1, faultinject.ModeError)
						defer faultinject.Reset()
					}
					res, err := eng.QueryWith(t.Context(), q, QueryOptions{Config: &cfg})
					if err != nil {
						t.Fatal(err)
					}
					if res.Report != nil {
						t.Error("native query returned a simulated Report")
					}
					if res.Degraded != degrade {
						t.Errorf("Degraded = %v, want %v (%s)", res.Degraded, degrade, res.DegradedReason)
					}
					wantPath := pqp.PathNative
					if degrade {
						wantPath = pqp.PathScalarFallback
					}
					if got := scanStats(t, res).Path; got != wantPath {
						t.Errorf("scan path = %q, want %q", got, wantPath)
					}
					if res.Count != want[i].Count || !reflect.DeepEqual(res.Rows, want[i].Rows) {
						t.Errorf("native rows differ from simulated: count %d vs %d", res.Count, want[i].Count)
					}
				})
			}
		}
	}
}
