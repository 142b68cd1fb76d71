package column

import (
	"encoding/binary"
	"fmt"
	"math"

	"fusedscan/internal/expr"
)

// Zone summarizes one fixed-size row range of a column for data skipping —
// Moerkotte's Small Materialized Aggregates. Min/Max hold stored bits
// (Column.Raw representation) over the zone's non-NULL, non-NaN rows.
type Zone struct {
	Min, Max uint64
	HasCmp   bool // at least one non-NULL, non-NaN row (Min/Max defined)
	HasValid bool // at least one non-NULL row
	HasNaN   bool // at least one non-NULL NaN row (float columns)
}

// ZoneMap is a per-column array of Zones at a fixed granularity, used by
// the scan driver to prove whole chunks cannot satisfy a predicate.
//
// Zone maps describe the column contents at build time; the engine's table
// registry treats registered tables as immutable, which is what makes the
// lazily built, cached maps safe to consult concurrently.
type ZoneMap struct {
	rowsPerZone int
	typ         expr.Type
	zones       []Zone
}

// RowsPerZone returns the granularity the map was built at.
func (zm *ZoneMap) RowsPerZone() int { return zm.rowsPerZone }

// Zones returns the number of zones.
func (zm *ZoneMap) Zones() int { return len(zm.zones) }

// ZoneMap returns the column's zone map at the given granularity, building
// and caching it on first use. Concurrency-safe.
func (c *Column) ZoneMap(rowsPerZone int) *ZoneMap {
	if rowsPerZone <= 0 {
		panic(fmt.Sprintf("column %s: rowsPerZone must be positive, got %d", c.name, rowsPerZone))
	}
	c.zmMu.Lock()
	defer c.zmMu.Unlock()
	if zm, ok := c.zoneMaps[rowsPerZone]; ok {
		return zm
	}
	zm := buildZoneMap(c, rowsPerZone)
	if c.zoneMaps == nil {
		c.zoneMaps = make(map[int]*ZoneMap)
	}
	c.zoneMaps[rowsPerZone] = zm
	return zm
}

func buildZoneMap(c *Column, rowsPerZone int) *ZoneMap {
	n := c.Len()
	zm := &ZoneMap{
		rowsPerZone: rowsPerZone,
		typ:         c.typ,
		zones:       make([]Zone, (n+rowsPerZone-1)/rowsPerZone),
	}
	if p := c.packed; p != nil && rowsPerZone%p.chunkRows == 0 && c.packOff%p.chunkRows == 0 {
		// Packed fast path: each zone covers whole packed chunks, whose
		// metadata already carries the exact valid-row min/max keys — the
		// map is assembled in O(chunks) without touching a single lane
		// (and without materializing a decoded copy).
		chunksPerZone := rowsPerZone / p.chunkRows
		firstChunk := c.packOff / p.chunkRows
		for z := range zm.zones {
			zone := &zm.zones[z]
			begin := firstChunk + z*chunksPerZone
			end := begin + chunksPerZone
			if end > len(p.chunks) {
				end = len(p.chunks)
			}
			var minKey, maxKey uint64
			for ci := begin; ci < end; ci++ {
				ch := &p.chunks[ci]
				if ch.ValidRows == 0 {
					continue
				}
				if !zone.HasCmp {
					minKey, maxKey = ch.Ref, ch.MaxKey
					zone.HasCmp, zone.HasValid = true, true
					continue
				}
				if ch.Ref < minKey {
					minKey = ch.Ref
				}
				if ch.MaxKey > maxKey {
					maxKey = ch.MaxKey
				}
			}
			if zone.HasCmp {
				zone.Min = KeyToRaw(c.typ, minKey)
				zone.Max = KeyToRaw(c.typ, maxKey)
			}
		}
		return zm
	}
	if c.packed == nil && c.nulls == nil && !c.typ.Float() {
		// Plain integer fast path: unpacked lanes with no NULLs and no NaNs,
		// so a zone's bounds are the min/max of its order-preserving keys
		// (RawToKey), taken over the lane bytes with the width switch
		// outside the row loop.
		size := c.typ.Size()
		for z := range zm.zones {
			begin := z * rowsPerZone
			end := min(begin+rowsPerZone, n)
			lo, hi := keyRange(c.data[begin*size:end*size], size, RawToKey(c.typ, 0))
			zm.zones[z] = Zone{Min: KeyToRaw(c.typ, lo), Max: KeyToRaw(c.typ, hi), HasCmp: true, HasValid: true}
		}
		return zm
	}
	for z := range zm.zones {
		begin := z * rowsPerZone
		end := begin + rowsPerZone
		if end > n {
			end = n
		}
		zone := &zm.zones[z]
		for i := begin; i < end; i++ {
			if c.Null(i) {
				continue
			}
			zone.HasValid = true
			raw := c.Raw(i)
			if isNaNRaw(c.typ, raw) {
				zone.HasNaN = true
				continue
			}
			if !zone.HasCmp {
				zone.Min, zone.Max = raw, raw
				zone.HasCmp = true
				continue
			}
			if expr.CompareBits(c.typ, expr.Lt, raw, zone.Min) {
				zone.Min = raw
			}
			if expr.CompareBits(c.typ, expr.Gt, raw, zone.Max) {
				zone.Max = raw
			}
		}
	}
	return zm
}

// keyRange returns the smallest and largest key over b's little-endian
// lanes of size bytes, each lane's key being its bits XOR flip (the sign
// bit for signed types). b holds at least one lane.
func keyRange(b []byte, size int, flip uint64) (lo, hi uint64) {
	lo = math.MaxUint64
	switch size {
	case 1:
		for _, v := range b {
			k := uint64(v) ^ flip
			lo, hi = min(lo, k), max(hi, k)
		}
	case 2:
		for i := 0; i+2 <= len(b); i += 2 {
			k := uint64(binary.LittleEndian.Uint16(b[i:])) ^ flip
			lo, hi = min(lo, k), max(hi, k)
		}
	case 4:
		for i := 0; i+4 <= len(b); i += 4 {
			k := uint64(binary.LittleEndian.Uint32(b[i:])) ^ flip
			lo, hi = min(lo, k), max(hi, k)
		}
	default:
		for i := 0; i+8 <= len(b); i += 8 {
			k := binary.LittleEndian.Uint64(b[i:]) ^ flip
			lo, hi = min(lo, k), max(hi, k)
		}
	}
	return lo, hi
}

func isNaNRaw(t expr.Type, raw uint64) bool {
	switch t {
	case expr.Float32:
		f := math.Float32frombits(uint32(raw))
		return f != f
	case expr.Float64:
		f := math.Float64frombits(raw)
		return f != f
	}
	return false
}

// MayMatch reports whether any row in [begin, end) can satisfy
// "col op needle" (needle in stored-bits form). NULL rows never satisfy a
// comparison, so an all-NULL range returns false. A false return is a
// proof; a true return is only "cannot rule out".
func (zm *ZoneMap) MayMatch(begin, end int, op expr.CmpOp, needleRaw uint64) bool {
	if end <= begin {
		return false
	}
	first := begin / zm.rowsPerZone
	last := (end - 1) / zm.rowsPerZone
	if first < 0 {
		first = 0
	}
	for z := first; z <= last && z < len(zm.zones); z++ {
		if zm.zones[z].mayMatch(zm.typ, op, needleRaw) {
			return true
		}
	}
	return false
}

func (zone *Zone) mayMatch(t expr.Type, op expr.CmpOp, needle uint64) bool {
	if !zone.HasValid {
		return false
	}
	if isNaNRaw(t, needle) {
		// Every comparison against a NaN needle is false except Ne, which
		// is true for any value (including NaN).
		return op == expr.Ne
	}
	if zone.HasNaN && op == expr.Ne {
		return true // a NaN row always differs from a non-NaN needle
	}
	if !zone.HasCmp {
		return false // only NaN rows, and op is not Ne
	}
	switch op {
	case expr.Eq:
		return expr.CompareBits(t, expr.Le, zone.Min, needle) &&
			expr.CompareBits(t, expr.Ge, zone.Max, needle)
	case expr.Ne:
		// Unsatisfiable only when every value equals the needle. Compare by
		// value, not bits: e.g. -0.0 and +0.0 are equal.
		return !(expr.CompareBits(t, expr.Eq, zone.Min, needle) &&
			expr.CompareBits(t, expr.Eq, zone.Max, needle))
	case expr.Lt:
		return expr.CompareBits(t, expr.Lt, zone.Min, needle)
	case expr.Le:
		return expr.CompareBits(t, expr.Le, zone.Min, needle)
	case expr.Gt:
		return expr.CompareBits(t, expr.Gt, zone.Max, needle)
	case expr.Ge:
		return expr.CompareBits(t, expr.Ge, zone.Max, needle)
	}
	return true
}
