package column

import (
	"math"
	"math/rand"
	"testing"

	"fusedscan/internal/expr"
	"fusedscan/internal/mach"
)

func TestZoneMapBoundsAndGranularity(t *testing.T) {
	space := mach.NewAddrSpace()
	vals := make([]int32, 1000)
	for i := range vals {
		vals[i] = int32(i) // zone z spans [z*100, z*100+99]
	}
	c := FromInt32s(space, "a", vals)
	zm := c.ZoneMap(100)
	if zm.Zones() != 10 || zm.RowsPerZone() != 100 {
		t.Fatalf("zones=%d rowsPerZone=%d", zm.Zones(), zm.RowsPerZone())
	}
	if got := c.ZoneMap(100); got != zm {
		t.Error("second lookup did not hit the cache")
	}

	needle := func(v int64) uint64 { return uint64(uint32(int32(v))) }
	// 250 lives in zone 2 only.
	if !zm.MayMatch(200, 300, expr.Eq, needle(250)) {
		t.Error("zone holding the value pruned")
	}
	if zm.MayMatch(300, 1000, expr.Eq, needle(250)) {
		t.Error("zones above the value not pruned for Eq")
	}
	if zm.MayMatch(300, 1000, expr.Lt, needle(250)) {
		t.Error("rows >= 300 cannot be < 250")
	}
	if !zm.MayMatch(0, 1000, expr.Lt, needle(250)) {
		t.Error("range containing smaller values pruned for Lt")
	}
	if zm.MayMatch(0, 200, expr.Ge, needle(250)) {
		t.Error("rows < 200 cannot be >= 250")
	}
	if zm.MayMatch(0, 0, expr.Eq, needle(0)) {
		t.Error("empty range matched")
	}
}

func TestZoneMapNulls(t *testing.T) {
	space := mach.NewAddrSpace()
	c := New(space, "a", expr.Int32, 200)
	for i := 0; i < 200; i++ {
		if i < 100 {
			c.SetNull(i)
		} else {
			c.Set(i, expr.NewInt(expr.Int32, 7))
		}
	}
	zm := c.ZoneMap(100)
	// NULL rows never satisfy a comparison: the all-NULL zone is prunable
	// for every operator.
	for _, op := range expr.AllCmpOps() {
		if zm.MayMatch(0, 100, op, uint64(7)) {
			t.Errorf("all-NULL zone matched %s", op)
		}
	}
	if !zm.MayMatch(100, 200, expr.Eq, uint64(7)) {
		t.Error("valid zone pruned")
	}
}

func TestZoneMapNeEqualMinMax(t *testing.T) {
	space := mach.NewAddrSpace()
	vals := []int32{5, 5, 5, 5}
	c := FromInt32s(space, "a", vals)
	zm := c.ZoneMap(4)
	if zm.MayMatch(0, 4, expr.Ne, uint64(5)) {
		t.Error("constant zone not pruned for Ne against the constant")
	}
	if !zm.MayMatch(0, 4, expr.Ne, uint64(6)) {
		t.Error("constant zone pruned for Ne against another value")
	}
}

func TestZoneMapFloatNaNAndSignedZero(t *testing.T) {
	space := mach.NewAddrSpace()
	c := New(space, "f", expr.Float64, 4)
	c.Set(0, expr.NewFloat(expr.Float64, math.NaN()))
	c.Set(1, expr.NewFloat(expr.Float64, math.Copysign(0, -1))) // -0.0
	c.Set(2, expr.NewFloat(expr.Float64, math.Copysign(0, -1)))
	c.Set(3, expr.NewFloat(expr.Float64, math.Copysign(0, -1)))
	zm := c.ZoneMap(4)

	nan := math.Float64bits(math.NaN())
	zero := math.Float64bits(0)
	// A NaN needle matches nothing except via Ne.
	for _, op := range []expr.CmpOp{expr.Eq, expr.Lt, expr.Le, expr.Gt, expr.Ge} {
		if zm.MayMatch(0, 4, op, nan) {
			t.Errorf("NaN needle matched %s", op)
		}
	}
	if !zm.MayMatch(0, 4, expr.Ne, nan) {
		t.Error("Ne against NaN pruned despite non-NaN rows")
	}
	// Min == Max == -0.0 equals a +0.0 needle by value: Ne is unsatisfiable
	// over the non-NaN rows, but the NaN row keeps the zone alive.
	if !zm.MayMatch(0, 4, expr.Ne, zero) {
		t.Error("zone with a NaN row pruned for Ne")
	}
	if !zm.MayMatch(0, 4, expr.Eq, zero) {
		t.Error("-0.0 zone pruned for Eq +0.0")
	}

	// Without the NaN row, Ne +0.0 over an all -0.0 zone IS prunable.
	c2 := New(space, "g", expr.Float64, 2)
	c2.Set(0, expr.NewFloat(expr.Float64, math.Copysign(0, -1)))
	c2.Set(1, expr.NewFloat(expr.Float64, math.Copysign(0, -1)))
	if c2.ZoneMap(2).MayMatch(0, 2, expr.Ne, zero) {
		t.Error("all -0.0 zone not pruned for Ne +0.0")
	}
}

// TestZoneMapNeverPrunesAMatch is the safety property: for random data and
// needles, any row the scalar semantics accept must live in a range
// MayMatch keeps. (Differential against per-row CompareBits.)
func TestZoneMapNeverPrunesAMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	space := mach.NewAddrSpace()
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(500)
		typ := expr.AllTypes()[rng.Intn(len(expr.AllTypes()))]
		c := New(space, "r", typ, n)
		for i := 0; i < n; i++ {
			switch {
			case rng.Intn(10) == 0:
				c.SetNull(i)
			case typ.Float() && rng.Intn(10) == 0:
				c.Set(i, expr.NewFloat(typ, math.NaN()))
			case typ.Float():
				c.Set(i, expr.NewFloat(typ, float64(rng.Intn(9)-4)))
			case typ.Signed():
				c.Set(i, expr.NewInt(typ, int64(rng.Intn(9)-4)))
			default:
				c.Set(i, expr.NewUint(typ, uint64(rng.Intn(9))))
			}
		}
		rows := 1 + rng.Intn(64)
		zm := c.ZoneMap(rows)
		for _, op := range expr.AllCmpOps() {
			var needle expr.Value
			if typ.Float() {
				needle = expr.NewFloat(typ, float64(rng.Intn(9)-4))
			} else if typ.Signed() {
				needle = expr.NewInt(typ, int64(rng.Intn(9)-4))
			} else {
				needle = expr.NewUint(typ, uint64(rng.Intn(9)))
			}
			needleRaw := StoredBits(needle)
			begin := rng.Intn(n)
			end := begin + 1 + rng.Intn(n-begin)
			may := zm.MayMatch(begin, end, op, needleRaw)
			anyRow := false
			for i := begin; i < end; i++ {
				if !c.Null(i) && expr.CompareBits(typ, op, c.Raw(i), needleRaw) {
					anyRow = true
					break
				}
			}
			if anyRow && !may {
				t.Fatalf("trial %d %s %s: pruned a range containing a match", trial, typ, op)
			}
		}
	}
}

// TestZoneMapIntegerFastPathMatchesGeneric: the NULL-free integer fast
// path must build exactly the zones the row-by-row path builds. An
// all-valid validity bitmap forces the row-by-row path over the same bits.
func TestZoneMapIntegerFastPathMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	space := mach.NewAddrSpace()
	for _, typ := range []expr.Type{expr.Int8, expr.Int16, expr.Int32, expr.Int64, expr.Uint8, expr.Uint16, expr.Uint32, expr.Uint64} {
		n := 1 + rng.Intn(5000)
		fast := New(space, "f", typ, n)
		generic := New(space, "g", typ, n)
		for i := 0; i < n; i++ {
			bits := rng.Uint64()
			fast.SetRaw(i, bits)
			generic.SetRaw(i, bits)
		}
		generic.EnsureNulls()
		for _, rows := range []int{1, 7, 64, 1000, n} {
			fz, gz := buildZoneMap(fast, rows), buildZoneMap(generic, rows)
			for z := range fz.zones {
				if fz.zones[z] != gz.zones[z] {
					t.Fatalf("%s n=%d rows=%d zone %d: fast %+v, generic %+v", typ, n, rows, z, fz.zones[z], gz.zones[z])
				}
			}
		}
	}
}
