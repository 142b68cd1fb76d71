package pqp

// The multi-table pipeline: a build/probe vectorized hash join and a
// grouped-aggregation sink, both speaking the same Volcano-with-vectors
// Open/Next/Close contract as the single-table operators.
//
// The join drains its build side inside Open into a hash table keyed by
// normalized raw key bits (scan.NormKeyBits) mapping to build-table row
// positions — no payload is copied; everything downstream reads the
// registered build table's columns by position. When the optimizer marked
// predicate transfer, the filtered build side's distinct keys also populate
// a Bloom filter that Open injects into the probe side's scan chain before
// the probe scan ever opens, so probe rows without a possible partner die
// inside the scan kernel (Yang et al.'s predicate transfer). Residual ON
// predicates are evaluated per candidate-pair batch by gathering both
// sides' values into temporary row-aligned columns and running the
// column-vs-column comparator family through the same kernel flavor
// (native SWAR / emulated fused / SISD) the configuration selects.

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"fusedscan/internal/column"
	"fusedscan/internal/expr"
	"fusedscan/internal/faultinject"
	"fusedscan/internal/govern"
	"fusedscan/internal/lqp"
	"fusedscan/internal/mach"
	"fusedscan/internal/scan"
)

// Hash-join memory-accounting estimates: one hash-table entry holds a
// 4-byte position inside a bucket slice plus amortized map overhead (key,
// bucket header, padding); one group holds its key values, aggregate
// states and map overhead.
const (
	bytesPerHashEntry = 48
	bytesPerGroupBase = 96
	bytesPerGroupCell = 48
)

// joinResidual is one bound residual ON comparison (probe OP build).
type joinResidual struct {
	probeCol *column.Column
	buildCol *column.Column
	op       expr.CmpOp
}

// joinOp is the inner hash equi-join. Open drains the build side into the
// hash table (and Bloom filter); Next pulls probe batches, looks up
// candidate pairs and filters them through the residual comparators,
// emitting pair batches (Sel = probe-relative, BuildSel = build-absolute).
type joinOp struct {
	probe positionStream
	build positionStream
	// probeScan, when non-nil, is the probe-side scan whose chain receives
	// the Bloom prefilter at Open (before the scan opens). Nil when the
	// probe side is not a chain scan; the filter then runs inside the join
	// loop instead.
	probeScan *scanOp
	probeKey  *column.Column
	buildKey  *column.Column
	keyType   expr.Type
	residuals []joinResidual
	transfer  bool
	// kernBuild constructs the kernel that evaluates residual
	// column-vs-column chains over the gathered pair columns.
	kernBuild func(scan.Chain) (scan.Kernel, error)
	space     *mach.AddrSpace
	label     string

	ctx         context.Context
	cpu         *mach.CPU
	regionB     int
	regionP     int
	regionG     int
	ht          map[uint64][]uint32
	bloom       *scan.Bloom
	bloomStats  *scan.BloomStats
	scalarBloom bool
	buildRows   int64
	probeRows   int64
	probeOpened bool
	buildClosed bool
	empty       bool
	charger     batchCharger
	rowIdx      int
	stats       opStats
}

func (op *joinOp) Describe() string {
	s := fmt.Sprintf("HashJoin[%s]", op.label)
	if op.transfer {
		s += " (bloom transfer)"
	}
	return s
}

func (op *joinOp) Stats() OperatorStats {
	st := op.stats.snapshot(op.Describe())
	st.BuildRows = op.buildRows
	st.ProbeRows = op.probeRows
	if op.bloomStats != nil {
		st.BloomChecks = op.bloomStats.Checks.Load()
		st.BloomPass = op.bloomStats.Pass.Load()
	}
	return st
}

func (op *joinOp) child() Operator { return op.probe }

// buildChild exposes the second subtree to the plan walks (Format,
// OperatorStats).
func (op *joinOp) buildChild() Operator { return op.build }

// setCountOnly is a no-op: the join always needs real positions on both
// sides to form pairs.
func (op *joinOp) setCountOnly(bool) {}

// Open runs the entire build phase: drain the build child, assemble the
// hash table (charged against the query's memory budget), and when
// predicate transfer is on, build the Bloom filter and inject it into the
// probe scan's chain — all before the probe side opens.
func (op *joinOp) Open(ctx context.Context, cpu *mach.CPU) error {
	defer op.stats.timed()()
	op.ctx, op.cpu = ctx, cpu
	op.charger = batchCharger{acct: govern.AccountantFrom(ctx)}
	op.ht = make(map[uint64][]uint32)
	op.buildRows, op.probeRows, op.rowIdx = 0, 0, 0
	op.probeOpened, op.buildClosed, op.empty, op.scalarBloom = false, false, false, false
	op.regionB = cpu.NewRandomRegion()
	op.regionP = cpu.NewRandomRegion()
	op.regionG = cpu.NewRandomRegion()
	if err := op.build.Open(ctx, cpu); err != nil {
		op.build.Close()
		op.buildClosed = true
		return err
	}
	if err := op.drainBuild(); err != nil {
		op.build.Close()
		op.buildClosed = true
		return err
	}
	op.build.Close()
	op.buildClosed = true
	if op.buildRows == 0 {
		// Empty build side: no probe row can join. The probe subtree is
		// never opened, so its scan (and any parallel morsels) never runs.
		op.empty = true
		return nil
	}
	if op.transfer {
		op.bloomStats = &scan.BloomStats{}
		bl := scan.NewBloom(op.keyType, len(op.ht))
		for k := range op.ht {
			bl.Add(k) // keys are already normalized; Add's NormKey is idempotent
		}
		if err := govern.Charge(ctx, bl.SizeBytes()); err != nil {
			return err
		}
		op.bloom = bl
		if op.probeScan != nil {
			// Inject the prefilter as the last chain stage: the probe's own
			// (cheaper, already selectivity-ordered) predicates run first,
			// and rows that survive them are membership-tested inside the
			// kernel before any hash-table work.
			op.probeScan.chain = append(op.probeScan.chain, scan.Pred{
				Col: op.probeKey, Bloom: bl, Stats: op.bloomStats,
			})
		} else {
			op.scalarBloom = true
		}
	}
	if err := op.probe.Open(ctx, cpu); err != nil {
		return err
	}
	op.probeOpened = true
	return nil
}

// drainBuild folds the whole build-side position stream into the hash
// table. NULL keys never join; NaN float keys equal nothing (including
// themselves) and are dropped too.
func (op *joinOp) drainBuild() error {
	isFloat := op.keyType.Float()
	for {
		b, err := op.build.Next()
		if err == EOS {
			return nil
		}
		if err != nil {
			return err
		}
		if err := faultinject.Hit(faultinject.SiteJoinBuildAlloc); err != nil {
			return fmt.Errorf("pqp: hash join build: %w", err)
		}
		// Hash-table state is retained until the join closes: budget it
		// batch-at-a-time as it accrues, before allocating.
		if err := govern.Charge(op.ctx, int64(b.Count)*bytesPerHashEntry); err != nil {
			return err
		}
		for _, rel := range b.Sel {
			if err := pollCtx(op.ctx, op.rowIdx); err != nil {
				return err
			}
			op.rowIdx++
			pos := int(b.Base) + int(rel)
			chargeRead(op.cpu, op.regionB, op.buildKey, pos)
			if op.buildKey.Null(pos) {
				continue
			}
			if isFloat && math.IsNaN(op.buildKey.Value(pos).Float()) {
				continue
			}
			k := scan.NormKeyBits(op.keyType, op.buildKey.Raw(pos))
			op.ht[k] = append(op.ht[k], uint32(pos))
			op.buildRows++
		}
	}
}

func (op *joinOp) Next() (Batch, error) {
	defer op.stats.timed()()
	if op.empty {
		return Batch{}, EOS
	}
	in, err := op.probe.Next()
	if err != nil {
		return Batch{}, err
	}
	if err := faultinject.Hit(faultinject.SiteJoinProbeBatch); err != nil {
		return Batch{}, fmt.Errorf("pqp: hash join probe: %w", err)
	}
	op.stats.noteIn(in)
	op.probeRows += int64(in.Count)
	isFloat := op.keyType.Float()
	var pairsP, pairsB []uint32
	for _, rel := range in.Sel {
		if err := pollCtx(op.ctx, op.rowIdx); err != nil {
			return Batch{}, err
		}
		op.rowIdx++
		pos := int(in.Base) + int(rel)
		chargeRead(op.cpu, op.regionP, op.probeKey, pos)
		if op.probeKey.Null(pos) {
			continue
		}
		if isFloat && math.IsNaN(op.probeKey.Value(pos).Float()) {
			continue
		}
		k := scan.NormKeyBits(op.keyType, op.probeKey.Raw(pos))
		if op.scalarBloom {
			// The probe side is not a chain scan, so the transferred filter
			// runs here — still ahead of the hash lookup and residuals.
			op.bloomStats.Checks.Add(1)
			op.cpu.Scalar(4)
			if !op.bloom.Test(k) {
				continue
			}
			op.bloomStats.Pass.Add(1)
		}
		matches := op.ht[k]
		op.cpu.Branch(0xA00+uint32(op.regionP), len(matches) > 0)
		for _, bpos := range matches {
			pairsP = append(pairsP, rel)
			pairsB = append(pairsB, bpos)
		}
	}
	if len(op.residuals) > 0 && len(pairsP) > 0 {
		pairsP, pairsB, err = op.applyResiduals(in.Base, pairsP, pairsB)
		if err != nil {
			return Batch{}, err
		}
	}
	out := Batch{Base: in.Base, Sel: pairsP, BuildSel: pairsB, Count: len(pairsP)}
	if err := op.charger.swap(int64(len(pairsP)) * 2 * bytesPerPosition); err != nil {
		return Batch{}, err
	}
	op.stats.noteOut(out)
	return out, nil
}

// applyResiduals evaluates the residual ON comparisons over the candidate
// pairs: both sides' values are gathered into temporary row-aligned
// columns (real random reads) and the column-vs-column chain runs through
// the configured kernel — the same comparator family a fused scan uses.
func (op *joinOp) applyResiduals(base uint32, pairsP, pairsB []uint32) ([]uint32, []uint32, error) {
	n := len(pairsP)
	ch := make(scan.Chain, len(op.residuals))
	for ri, r := range op.residuals {
		sizeP := r.probeCol.Type().Size()
		sizeB := r.buildCol.Type().Size()
		tmpP := column.New(op.space, fmt.Sprintf("join$p%d", ri), r.probeCol.Type(), n)
		tmpB := column.New(op.space, fmt.Sprintf("join$b%d", ri), r.buildCol.Type(), n)
		for i := 0; i < n; i++ {
			if err := pollCtx(op.ctx, op.rowIdx); err != nil {
				return nil, nil, err
			}
			op.rowIdx++
			ppos := int(base) + int(pairsP[i])
			bpos := int(pairsB[i])
			if op.cpu != nil {
				op.cpu.Scalar(4)
				op.cpu.RandomRead(op.regionG, r.probeCol.Addr(ppos), sizeP)
				op.cpu.RandomRead(op.regionG, r.buildCol.Addr(bpos), sizeB)
			}
			if r.probeCol.Null(ppos) {
				tmpP.SetNull(i)
			} else {
				tmpP.SetRaw(i, r.probeCol.Raw(ppos))
			}
			if r.buildCol.Null(bpos) {
				tmpB.SetNull(i)
			} else {
				tmpB.SetRaw(i, r.buildCol.Raw(bpos))
			}
		}
		ch[ri] = scan.Pred{Col: tmpP, Col2: tmpB, Op: r.op}
	}
	kern, err := op.kernBuild(ch)
	if err != nil {
		return nil, nil, fmt.Errorf("pqp: join residual chain: %w", err)
	}
	res := kern.Run(op.cpu, true)
	keepP := make([]uint32, 0, res.Count)
	keepB := make([]uint32, 0, res.Count)
	for _, i := range res.Positions {
		keepP = append(keepP, pairsP[i])
		keepB = append(keepB, pairsB[i])
	}
	return keepP, keepB, nil
}

func (op *joinOp) Close() error {
	op.charger.done()
	op.ht = nil
	var err error
	if !op.buildClosed {
		err = op.build.Close()
		op.buildClosed = true
	}
	if op.probeOpened {
		if perr := op.probe.Close(); err == nil {
			err = perr
		}
	}
	return err
}

// groupCol is one side-resolved column a group operator reads.
type groupCol struct {
	col   *column.Column
	build bool
}

// groupAgg is one grouped aggregate bound to its column.
type groupAgg struct {
	kind lqp.AggKind
	col  *column.Column // nil for COUNT(*)
	bld  bool
}

// groupState is one group's accumulated fold.
type groupState struct {
	keyVals []expr.Value
	keyNull []bool
	states  []aggState
	count   int64
}

// groupOp is the grouped-aggregation sink: it hashes each input row's key
// columns (probe- or build-side, so it consumes join pair batches as well
// as plain position streams) and accumulates the aggregates per group.
// With zero keys it degenerates to a single-group aggregate — the shape
// un-grouped aggregates over a join take. Output rows are emitted in
// ascending key order (NULL keys last), so results are deterministic
// regardless of hash iteration order.
type groupOp struct {
	input     positionStream
	keys      []groupCol
	keyNames  []string
	items     []groupAgg
	labels    []string
	batchRows int

	ctx     context.Context
	cpu     *mach.CPU
	regionK int
	regionA int
	groups  map[string]*groupState
	ordered []*groupState
	total   int
	drained bool
	cursor  int
	rowIdx  int
	stats   opStats
}

func (op *groupOp) Describe() string {
	if len(op.keys) == 0 {
		return fmt.Sprintf("GroupBy[%s]", strings.Join(op.labels, ", "))
	}
	return fmt.Sprintf("GroupBy[%s | %s]", strings.Join(op.keyNames, ", "), strings.Join(op.labels, ", "))
}

func (op *groupOp) Stats() OperatorStats {
	st := op.stats.snapshot(op.Describe())
	st.Groups = int64(len(op.ordered))
	if !op.drained {
		st.Groups = int64(len(op.groups))
	}
	return st
}

func (op *groupOp) child() Operator { return op.input }

// shape pre-sets the result frame: grouped output is a row result under
// key-then-aggregate headers; the zero-key form is a labelled aggregate
// row, exactly like the plain aggregate sink.
func (op *groupOp) shape(qr *QueryResult) {
	if len(op.keys) == 0 {
		qr.IsAggregate = true
		qr.AggLabels = op.labels
		return
	}
	qr.Columns = append(append([]string{}, op.keyNames...), op.labels...)
}

func (op *groupOp) Open(ctx context.Context, cpu *mach.CPU) error {
	if err := op.input.Open(ctx, cpu); err != nil {
		return err
	}
	op.ctx, op.cpu = ctx, cpu
	op.regionK = cpu.NewRandomRegion()
	op.regionA = cpu.NewRandomRegion()
	op.groups = make(map[string]*groupState)
	op.ordered = nil
	op.total, op.cursor, op.rowIdx = 0, 0, 0
	op.drained = false
	return nil
}

func (op *groupOp) Next() (Batch, error) {
	defer op.stats.timed()()
	if !op.drained {
		if err := op.drain(); err != nil {
			return Batch{}, err
		}
		op.drained = true
		if len(op.keys) == 0 {
			// Single-group aggregate: one final batch, aggOp-compatible.
			g, err := op.group(nil, -1, -1)
			if err != nil {
				return Batch{}, err
			}
			out := Batch{Count: op.total, Aggregates: op.finishGroup(g)}
			op.stats.noteOut(out)
			op.cursor = len(op.ordered)
			return out, nil
		}
		op.sortGroups()
	}
	if op.cursor >= len(op.ordered) {
		return Batch{}, EOS
	}
	begin := op.cursor
	end := begin + op.batchRows
	if end > len(op.ordered) {
		end = len(op.ordered)
	}
	op.cursor = end
	out := Batch{Count: end - begin}
	for _, g := range op.ordered[begin:end] {
		row := make(Row, 0, len(op.keys)+len(op.items))
		nulls := make([]bool, 0, len(op.keys)+len(op.items))
		anyNull := false
		for i, v := range g.keyVals {
			row = append(row, v)
			nulls = append(nulls, g.keyNull[i])
			anyNull = anyNull || g.keyNull[i]
		}
		for _, v := range op.finishGroup(g) {
			row = append(row, v)
			nulls = append(nulls, false)
		}
		out.Rows = append(out.Rows, row)
		if anyNull {
			out.RowNulls = append(out.RowNulls, nulls)
		} else {
			out.RowNulls = append(out.RowNulls, make([]bool, len(row)))
		}
	}
	op.stats.noteOut(out)
	return out, nil
}

// drain consumes the whole input, folding every row into its group. The
// per-row work allocates nothing: the byte-encoded key is reused across
// rows, and the key values are materialized only for a new group.
func (op *groupOp) drain() error {
	var keyBuf []byte
	for {
		in, err := op.input.Next()
		if err == EOS {
			return nil
		}
		if err != nil {
			return err
		}
		op.stats.noteIn(in)
		op.total += in.Count
		for i, rel := range in.Sel {
			if err := pollCtx(op.ctx, op.rowIdx); err != nil {
				return err
			}
			op.rowIdx++
			ppos := int(in.Base) + int(rel)
			bpos := -1
			if in.BuildSel != nil {
				bpos = int(in.BuildSel[i])
			}
			keyBuf = keyBuf[:0]
			for _, kc := range op.keys {
				pos := ppos
				if kc.build {
					pos = bpos
				}
				chargeRead(op.cpu, op.regionK, kc.col, pos)
				if kc.col.Null(pos) {
					// SQL groups all NULL keys together.
					keyBuf = append(keyBuf, 1, 0, 0, 0, 0, 0, 0, 0, 0)
					continue
				}
				k := scan.NormKeyBits(kc.col.Type(), kc.col.Raw(pos))
				keyBuf = append(keyBuf, 0,
					byte(k), byte(k>>8), byte(k>>16), byte(k>>24),
					byte(k>>32), byte(k>>40), byte(k>>48), byte(k>>56))
			}
			g, err := op.group(keyBuf, ppos, bpos)
			if err != nil {
				return err
			}
			g.count++
			for ai, it := range op.items {
				if it.col == nil {
					continue
				}
				pos := ppos
				if it.bld {
					pos = bpos
				}
				chargeRead(op.cpu, op.regionA, it.col, pos)
				if it.col.Null(pos) {
					continue
				}
				g.states[ai].fold(it.kind, it.col.Type(), it.col.Value(pos))
			}
		}
	}
}

// group returns the state for the encoded key of the row at probe
// position ppos / build position bpos. On first sight it charges the
// group, copies the key and reads the row's key values.
func (op *groupOp) group(key []byte, ppos, bpos int) (*groupState, error) {
	if g, ok := op.groups[string(key)]; ok {
		return g, nil
	}
	// Group state is retained until the sink drains: charge as it accrues.
	cost := int64(bytesPerGroupBase + (len(op.keys)+len(op.items))*bytesPerGroupCell)
	if err := govern.Charge(op.ctx, cost); err != nil {
		return nil, err
	}
	g := &groupState{states: make([]aggState, len(op.items))}
	if len(op.keys) > 0 {
		g.keyVals = make([]expr.Value, len(op.keys))
		g.keyNull = make([]bool, len(op.keys))
		for ki, kc := range op.keys {
			pos := ppos
			if kc.build {
				pos = bpos
			}
			if kc.col.Null(pos) {
				g.keyNull[ki] = true
			} else {
				g.keyVals[ki] = kc.col.Value(pos)
			}
		}
	}
	op.groups[string(key)] = g
	return g, nil
}

func (op *groupOp) finishGroup(g *groupState) []expr.Value {
	out := make([]expr.Value, 0, len(op.items))
	for i, it := range op.items {
		var t expr.Type
		kind := it.kind
		if it.col != nil {
			t = it.col.Type()
		} else {
			kind = lqp.AggCount
		}
		out = append(out, g.states[i].finish(kind, t, g.count))
	}
	return out
}

// sortGroups orders the groups ascending by key values, NULL keys last —
// the deterministic output order the regression suite relies on.
func (op *groupOp) sortGroups() {
	op.ordered = make([]*groupState, 0, len(op.groups))
	for _, g := range op.groups {
		op.ordered = append(op.ordered, g)
	}
	sort.SliceStable(op.ordered, func(a, b int) bool {
		ga, gb := op.ordered[a], op.ordered[b]
		for i := range op.keys {
			switch {
			case ga.keyNull[i] && gb.keyNull[i]:
				continue
			case ga.keyNull[i]:
				return false
			case gb.keyNull[i]:
				return true
			}
			if ga.keyVals[i].Compare(expr.Lt, gb.keyVals[i]) {
				return true
			}
			if ga.keyVals[i].Compare(expr.Gt, gb.keyVals[i]) {
				return false
			}
		}
		return false
	})
	if n := len(op.ordered); n > 1 {
		logN := 0
		for v := n; v > 1; v >>= 1 {
			logN++
		}
		op.cpu.Scalar(2 * n * logN)
	}
}

func (op *groupOp) Close() error {
	op.groups = nil
	return op.input.Close()
}

// projCol is one side-resolved output column of a join-aware projection.
type projCol struct {
	col   *column.Column
	build bool
}

// joinProjectOp materializes output columns from both sides of a join's
// pair batches (and degenerates to a plain projection over single-table
// position streams). Mirrors projectOp's cap and memory behaviour.
type joinProjectOp struct {
	input     positionStream
	cols      []projCol
	names     []string
	capRows   int
	unbounded bool

	ctx       context.Context
	cpu       *mach.CPU
	regions   []int
	remaining int
	rowIdx    int
	stats     opStats
}

func (op *joinProjectOp) Describe() string {
	return fmt.Sprintf("Projection[%s]", strings.Join(op.names, ", "))
}

func (op *joinProjectOp) Stats() OperatorStats { return op.stats.snapshot(op.Describe()) }

func (op *joinProjectOp) child() Operator { return op.input }

func (op *joinProjectOp) shape(qr *QueryResult) { qr.Columns = op.names }

// capAt tightens the materialization cap (LIMIT pushdown).
func (op *joinProjectOp) capAt(n int) {
	if op.capRows == 0 || n < op.capRows {
		op.capRows = n
	}
}

func (op *joinProjectOp) Open(ctx context.Context, cpu *mach.CPU) error {
	if err := op.input.Open(ctx, cpu); err != nil {
		return err
	}
	op.ctx, op.cpu = ctx, cpu
	op.regions = make([]int, len(op.cols))
	for i := range op.cols {
		op.regions[i] = cpu.NewRandomRegion()
	}
	op.remaining = op.capRows
	if op.remaining <= 0 || (!op.unbounded && op.remaining > maxMaterializedRows) {
		op.remaining = maxMaterializedRows
		if op.unbounded {
			op.remaining = math.MaxInt
		}
	}
	op.rowIdx = 0
	return nil
}

func (op *joinProjectOp) Next() (Batch, error) {
	defer op.stats.timed()()
	in, err := op.input.Next()
	if err != nil {
		return Batch{}, err
	}
	op.stats.noteIn(in)
	out := Batch{Base: in.Base, Count: in.Count}
	rowBytes := int64(bytesPerRowBase + len(op.cols)*bytesPerRowCell)
	for i, rel := range in.Sel {
		if op.remaining <= 0 {
			break
		}
		if err := pollCtx(op.ctx, op.rowIdx); err != nil {
			return Batch{}, err
		}
		op.rowIdx++
		if err := govern.Charge(op.ctx, rowBytes); err != nil {
			return Batch{}, err
		}
		row := make(Row, len(op.cols))
		nullRow := make([]bool, len(op.cols))
		for ci, pc := range op.cols {
			pos := int(in.Base) + int(rel)
			if pc.build {
				pos = int(in.BuildSel[i])
			}
			chargeRead(op.cpu, op.regions[ci], pc.col, pos)
			row[ci] = pc.col.Value(pos)
			if pc.col.Null(pos) {
				nullRow[ci] = true
			}
		}
		out.Rows = append(out.Rows, row)
		out.RowNulls = append(out.RowNulls, nullRow)
		op.remaining--
	}
	op.stats.noteOut(out)
	return out, nil
}

func (op *joinProjectOp) Close() error { return op.input.Close() }
