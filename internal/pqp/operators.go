package pqp

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"fusedscan/internal/column"
	"fusedscan/internal/expr"
	"fusedscan/internal/govern"
	"fusedscan/internal/lqp"
	"fusedscan/internal/mach"
	"fusedscan/internal/parallel"
	"fusedscan/internal/scan"
)

// maxMaterializedRows bounds how many output rows a projection will
// materialize when no LIMIT is given, so SELECT * over a huge table cannot
// exhaust memory. Count is always exact.
const maxMaterializedRows = 100000

// pollEvery is how many per-position iterations pass between context
// checks in the per-position operator loops (filter, aggregate fold, sort
// keys, projection). A power of two so the check is a mask test.
const pollEvery = 1 << 13

// pollCtx returns ctx.Err() every pollEvery-th iteration i (and on i == 0),
// nil otherwise. Operators with per-position loops call it so a cancelled
// query aborts mid-loop instead of running to completion.
func pollCtx(ctx context.Context, i int) error {
	if i&(pollEvery-1) != 0 {
		return nil
	}
	return ctx.Err()
}

// Memory-accounting cost estimates. The accountant (govern.Accountant,
// carried in the query context) is charged per in-flight batch for
// transient position memory (released as the pipeline advances) and
// without release for retained state: sort keys live until the sort
// drains, and projected rows live in the final QueryResult. The estimates
// cover the dominant allocations: position entries are 4 B, sort state
// holds a key value, a null flag and two index/position words, and each
// projected row holds one expr.Value per column plus slice headers.
const (
	bytesPerPosition = 4
	bytesPerSortKey  = 48
	bytesPerRowBase  = 48
	bytesPerRowCell  = 24
)

// positionStream is the internal dataflow contract of operators that emit
// position batches. In count-only mode a producer may omit Sel from its
// batches (Count stays exact); consumers that need positions leave it off.
type positionStream interface {
	Operator
	setCountOnly(bool)
}

// fullScanOp produces every row of a table (a scan with no predicates),
// one batch per chunk window.
type fullScanOp struct {
	tbl       *column.Table
	batchRows int
	countOnly bool

	ctx     context.Context
	cpu     *mach.CPU
	cursor  int
	charger batchCharger
	stats   opStats
}

func newFullScan(tbl *column.Table, batchRows int) *fullScanOp {
	return &fullScanOp{tbl: tbl, batchRows: batchRows}
}

func (op *fullScanOp) Describe() string { return fmt.Sprintf("TableScan(%s, all rows)", op.tbl.Name()) }

func (op *fullScanOp) Stats() OperatorStats { return op.stats.snapshot(op.Describe()) }

func (op *fullScanOp) setCountOnly(v bool) { op.countOnly = v }

func (op *fullScanOp) Open(ctx context.Context, cpu *mach.CPU) error {
	op.ctx, op.cpu = ctx, cpu
	op.cursor = 0
	op.charger = batchCharger{acct: govern.AccountantFrom(ctx)}
	return ctx.Err()
}

func (op *fullScanOp) Next() (Batch, error) {
	defer op.stats.timed()()
	n := op.tbl.Rows()
	if op.cursor >= n {
		return Batch{}, EOS
	}
	if err := op.ctx.Err(); err != nil {
		return Batch{}, err
	}
	begin := op.cursor
	end := begin + op.batchRows
	if end > n {
		end = n
	}
	op.cursor = end
	op.stats.noteScanned(end - begin)
	b := Batch{Base: uint32(begin), Count: end - begin}
	if !op.countOnly {
		if err := op.charger.swap(int64(b.Count) * bytesPerPosition); err != nil {
			return Batch{}, err
		}
		b.Sel = make([]uint32, b.Count)
		for i := range b.Sel {
			b.Sel[i] = uint32(i)
		}
		op.cpu.Scalar(b.Count)
	}
	op.stats.noteOut(b)
	return b, nil
}

func (op *fullScanOp) Close() error {
	op.charger.done()
	return nil
}

// scanOp evaluates a predicate chain through the morsel driver
// (internal/parallel): a kernel pass per unpruned morsel, each morsel's
// morsel-relative position list emitted as one batch — the kernel's
// register-resident position lists feed the pipeline directly, never
// widening into a whole-table position list. With Cores > 1 the morsels
// are produced by parallel workers and merged in morsel order, so
// downstream operators consume an identical ordered stream.
type scanOp struct {
	tbl   *column.Table
	chain scan.Chain
	kern  kernelFamily
	// stopAfter, when > 0, is the optimizer's LIMIT pushdown hint: stop
	// producing once this many matches have been emitted (rounded up to a
	// batch boundary).
	stopAfter int
	// cores/morselRows configure the driver; params, when non-nil, is the
	// calibration for parallel workers' simulated CPUs.
	cores      int
	morselRows int
	params     *mach.Params
	countOnly  bool
	// estSel is the optimizer's selectivity estimate for the whole chain,
	// used to pre-size per-morsel position lists (0 = no estimate).
	estSel float64

	ctx     context.Context
	emitted int
	stream  *parallel.Stream
	perCore []mach.Counters
	charger batchCharger
	stats   opStats
}

func (op *scanOp) Describe() string { return fmt.Sprintf("%s on %s", op.kern.name, op.tbl.Name()) }

func (op *scanOp) Stats() OperatorStats {
	st := op.stats.snapshot(op.Describe())
	st.Path = op.kern.path
	st.Encoding = op.chain.Encoding()
	if op.stream != nil {
		st.ChunksPruned = int64(op.stream.Pruned())
		st.BytesScanned = op.stream.BytesScanned()
	}
	return st
}

func (op *scanOp) setCountOnly(v bool) { op.countOnly = v }

func (op *scanOp) Open(ctx context.Context, cpu *mach.CPU) error {
	op.ctx = ctx
	op.emitted = 0
	op.perCore = nil
	op.charger = batchCharger{acct: govern.AccountantFrom(ctx)}
	st, err := parallel.NewStream(ctx, op.chain, op.kern.build, parallel.Options{
		Cores: op.cores, MorselRows: op.morselRows, CPU: cpu, Params: op.params,
		Positions: !op.countOnly, EstSel: op.estSel,
	})
	if err != nil {
		return err
	}
	op.stream = st
	return nil
}

func (op *scanOp) Next() (Batch, error) {
	defer op.stats.timed()()
	if op.stopAfter > 0 && op.emitted >= op.stopAfter {
		return Batch{}, EOS
	}
	if err := op.ctx.Err(); err != nil {
		return Batch{}, err
	}
	m, err := op.stream.Next()
	if err == parallel.EOS {
		op.perCore = op.stream.PerCore()
		return Batch{}, EOS
	}
	if err != nil {
		return Batch{}, err
	}
	op.stats.noteScanned(m.Rows)
	b := Batch{Base: uint32(m.Begin), Sel: m.Res.Positions, Count: m.Res.Count}
	if err := op.charger.swap(int64(len(b.Sel)) * bytesPerPosition); err != nil {
		return Batch{}, err
	}
	op.emitted += b.Count
	op.stats.noteOut(b)
	return b, nil
}

func (op *scanOp) Close() error {
	op.charger.done()
	if op.stream != nil {
		// Close cancels morsels not yet started — the LIMIT short-circuit
		// path when the consumer stops pulling early. It must run before
		// PerCore, which waits for the workers to wind down.
		op.stream.Close()
		if op.perCore == nil {
			op.perCore = op.stream.PerCore()
		}
	}
	return nil
}

// perCoreCounters exposes the parallel workers' counters to the plan-level
// report (nil for single-core or native execution).
func (op *scanOp) perCoreCounters() []mach.Counters { return op.perCore }

// filterOp applies one predicate to incoming position batches — the
// "regular query plan" of Figure 8, where every σ consumes and produces
// position lists. The lists now stay batch-sized and chunk-relative
// instead of materializing per operator; this execution style remains what
// the fused operator replaces.
type filterOp struct {
	input     positionStream
	pred      scan.Pred
	countOnly bool

	ctx     context.Context
	cpu     *mach.CPU
	region  int
	rowIdx  int
	charger batchCharger
	stats   opStats
}

func (op *filterOp) Describe() string {
	return fmt.Sprintf("Filter[%s] (batched position stream)", op.pred)
}

func (op *filterOp) Stats() OperatorStats { return op.stats.snapshot(op.Describe()) }

func (op *filterOp) child() Operator { return op.input }

// setCountOnly affects only the filter's own output; its input always
// carries full positions (the filter needs them to evaluate).
func (op *filterOp) setCountOnly(v bool) { op.countOnly = v }

func (op *filterOp) Open(ctx context.Context, cpu *mach.CPU) error {
	if err := op.input.Open(ctx, cpu); err != nil {
		return err
	}
	op.ctx, op.cpu = ctx, cpu
	op.region = cpu.NewRandomRegion()
	op.rowIdx = 0
	op.charger = batchCharger{acct: govern.AccountantFrom(ctx)}
	return nil
}

func (op *filterOp) Next() (Batch, error) {
	defer op.stats.timed()()
	in, err := op.input.Next()
	if err != nil {
		return Batch{}, err
	}
	op.stats.noteIn(in)
	col := op.pred.Col
	size := col.Type().Size()
	needle := op.pred.StoredBits()
	out := Batch{Base: in.Base}
	for i, rel := range in.Sel {
		if err := pollCtx(op.ctx, op.rowIdx); err != nil {
			return Batch{}, err
		}
		op.rowIdx++
		pos := int(in.Base) + int(rel)
		op.cpu.Scalar(2)
		op.cpu.RandomRead(op.region, col.Addr(pos), size)
		match := expr.CompareBits(col.Type(), op.pred.Op, col.Raw(pos), needle)
		op.cpu.Branch(0x900+uint32(op.region), match)
		if match {
			out.Count++
			if !op.countOnly {
				out.Sel = append(out.Sel, rel)
				if in.BuildSel != nil {
					// Preserve join pair alignment through the filter.
					out.BuildSel = append(out.BuildSel, in.BuildSel[i])
				}
			}
			op.cpu.Scalar(1)
		}
	}
	if err := op.charger.swap(int64(len(out.Sel)) * bytesPerPosition); err != nil {
		return Batch{}, err
	}
	op.stats.noteOut(out)
	return out, nil
}

func (op *filterOp) Close() error {
	op.charger.done()
	return op.input.Close()
}

// aggItem is one aggregate computation bound to its column.
type aggItem struct {
	kind lqp.AggKind
	col  *column.Column // nil for COUNT(*)
}

// aggState folds one item.
type aggState struct {
	sumI   int64
	sumF   float64
	minMax expr.Value
	seen   bool
	valid  int64
}

// fold accumulates one non-NULL value of type t into the state. Shared by
// the plain aggregate sink and the grouped-aggregation sink.
func (st *aggState) fold(kind lqp.AggKind, t expr.Type, v expr.Value) {
	st.valid++
	switch kind {
	case lqp.AggSum, lqp.AggAvg:
		switch {
		case t.Float():
			st.sumF += v.Float()
		case t.Signed():
			st.sumI += v.Int()
		default:
			st.sumI += int64(v.Uint())
		}
	case lqp.AggMin:
		if !st.seen || v.Compare(expr.Lt, st.minMax) {
			st.minMax = v
			st.seen = true
		}
	case lqp.AggMax:
		if !st.seen || v.Compare(expr.Gt, st.minMax) {
			st.minMax = v
			st.seen = true
		}
	}
}

// finish renders the folded state into a result value. count is the
// group's row count (the COUNT(*) value); t is the folded column's type
// (ignored for COUNT(*)).
func (st aggState) finish(kind lqp.AggKind, t expr.Type, count int64) expr.Value {
	switch {
	case kind == lqp.AggCount:
		return expr.NewInt(expr.Int64, count)
	case kind == lqp.AggSum:
		if t.Float() {
			return expr.NewFloat(expr.Float64, st.sumF)
		}
		return expr.NewInt(expr.Int64, st.sumI)
	case kind == lqp.AggAvg:
		total := st.sumF
		if !t.Float() {
			total = float64(st.sumI)
		}
		if st.valid > 0 {
			total /= float64(st.valid)
		}
		return expr.NewFloat(expr.Float64, total)
	default: // MIN / MAX
		if !st.seen {
			if t.Float() {
				return expr.NewFloat(expr.Float64, 0) // empty input
			}
			return expr.NewInt(expr.Int64, 0)
		}
		return st.minMax
	}
}

// aggOp is a consuming sink: it folds its input batch-at-a-time — non-count
// items gather their column's values (real random reads) into running
// states — and emits the result as a single final batch. NULL values are
// ignored, per SQL (an all-NULL input yields 0 / no value rather than NULL
// — a documented simplification).
type aggOp struct {
	input  positionStream
	items  []aggItem
	labels []string

	ctx     context.Context
	cpu     *mach.CPU
	regions []int
	states  []aggState
	total   int
	rowIdx  int
	done    bool
	stats   opStats
}

func (op *aggOp) Describe() string {
	labels := make([]string, len(op.items))
	for i, it := range op.items {
		if it.col == nil {
			labels[i] = "COUNT(*)"
		} else {
			labels[i] = fmt.Sprintf("%s(%s)", it.kind, it.col.Name())
		}
	}
	return fmt.Sprintf("Aggregate[%s]", strings.Join(labels, ", "))
}

func (op *aggOp) Stats() OperatorStats { return op.stats.snapshot(op.Describe()) }

func (op *aggOp) child() Operator { return op.input }

// shape pre-sets the aggregate result frame so even an empty input yields
// a labelled aggregate row.
func (op *aggOp) shape(qr *QueryResult) {
	qr.IsAggregate = true
	qr.AggLabels = op.labels
}

// countOnly reports whether every item is COUNT(*), in which case the
// position stream below may run without materializing positions.
func (op *aggOp) countOnly() bool {
	for _, it := range op.items {
		if it.col != nil {
			return false
		}
	}
	return true
}

func (op *aggOp) Open(ctx context.Context, cpu *mach.CPU) error {
	if err := op.input.Open(ctx, cpu); err != nil {
		return err
	}
	op.ctx, op.cpu = ctx, cpu
	op.states = make([]aggState, len(op.items))
	op.regions = make([]int, len(op.items))
	for i, it := range op.items {
		if it.col != nil {
			op.regions[i] = cpu.NewRandomRegion()
		}
	}
	op.total, op.rowIdx, op.done = 0, 0, false
	return nil
}

func (op *aggOp) Next() (Batch, error) {
	defer op.stats.timed()()
	if op.done {
		return Batch{}, EOS
	}
	for {
		in, err := op.input.Next()
		if err == EOS {
			break
		}
		if err != nil {
			return Batch{}, err
		}
		op.stats.noteIn(in)
		op.total += in.Count
		if err := op.fold(in); err != nil {
			return Batch{}, err
		}
	}
	op.done = true
	out := Batch{Count: op.total, Aggregates: op.finish()}
	op.stats.noteOut(out)
	return out, nil
}

// fold applies one batch's positions to the aggregate states.
func (op *aggOp) fold(in Batch) error {
	for _, rel := range in.Sel {
		if err := pollCtx(op.ctx, op.rowIdx); err != nil {
			return err
		}
		op.rowIdx++
		pos := int(in.Base) + int(rel)
		for i, it := range op.items {
			if it.col == nil {
				continue
			}
			op.cpu.Scalar(2) // address computation + fold
			op.cpu.RandomRead(op.regions[i], it.col.Addr(pos), it.col.Type().Size())
			if it.col.Null(pos) {
				continue
			}
			op.states[i].fold(it.kind, it.col.Type(), it.col.Value(pos))
		}
	}
	return nil
}

// finish renders the folded states into result values.
func (op *aggOp) finish() []expr.Value {
	out := make([]expr.Value, 0, len(op.items))
	for i, it := range op.items {
		var t expr.Type
		if it.col != nil {
			t = it.col.Type()
		}
		kind := it.kind
		if it.col == nil {
			kind = lqp.AggCount
		}
		out = append(out, op.states[i].finish(kind, t, int64(op.total)))
	}
	return out
}

func (op *aggOp) Close() error { return op.input.Close() }

// sortOp orders the qualifying positions by one column's values (ORDER
// BY). Sorting is a pipeline barrier: the sink folds its input
// batch-at-a-time into retained sort state (keys fetched with real random
// reads, charged to the memory accountant), sorts once, then streams the
// ordered positions back out in batches. In count-only mode it passes
// batches straight through — counting needs no order.
type sortOp struct {
	input     positionStream
	col       *column.Column
	desc      bool
	batchRows int
	countOnly bool

	ctx     context.Context
	cpu     *mach.CPU
	drained bool
	sorted  []uint32
	cursor  int
	rowIdx  int
	stats   opStats
}

func (op *sortOp) Describe() string {
	dir := "ASC"
	if op.desc {
		dir = "DESC"
	}
	return fmt.Sprintf("Sort[%s %s]", op.col.Name(), dir)
}

func (op *sortOp) Stats() OperatorStats { return op.stats.snapshot(op.Describe()) }

func (op *sortOp) child() Operator { return op.input }

func (op *sortOp) setCountOnly(v bool) {
	op.countOnly = v
	op.input.setCountOnly(v)
}

func (op *sortOp) Open(ctx context.Context, cpu *mach.CPU) error {
	if err := op.input.Open(ctx, cpu); err != nil {
		return err
	}
	op.ctx, op.cpu = ctx, cpu
	op.drained, op.sorted, op.cursor, op.rowIdx = false, nil, 0, 0
	return nil
}

func (op *sortOp) Next() (Batch, error) {
	defer op.stats.timed()()
	if op.countOnly {
		b, err := op.input.Next()
		if err != nil {
			return Batch{}, err
		}
		op.stats.noteIn(b)
		op.stats.noteOut(b)
		return b, nil
	}
	if !op.drained {
		if err := op.drain(); err != nil {
			return Batch{}, err
		}
		op.drained = true
	}
	if op.cursor >= len(op.sorted) {
		return Batch{}, EOS
	}
	begin := op.cursor
	end := begin + op.batchRows
	if end > len(op.sorted) {
		end = len(op.sorted)
	}
	op.cursor = end
	out := Batch{Base: 0, Sel: op.sorted[begin:end], Count: end - begin}
	op.stats.noteOut(out)
	return out, nil
}

// drain consumes the whole input, fetches sort keys and produces the
// ordered position permutation.
func (op *sortOp) drain() error {
	region := op.cpu.NewRandomRegion()
	size := op.col.Type().Size()
	var positions []uint32
	var keys []expr.Value
	var nulls []bool
	for {
		in, err := op.input.Next()
		if err == EOS {
			break
		}
		if err != nil {
			return err
		}
		op.stats.noteIn(in)
		// Sort state (key, null flag, index and position words) is retained
		// until the sort drains: budget it batch-at-a-time as it accrues.
		if err := govern.Charge(op.ctx, int64(in.Count)*bytesPerSortKey); err != nil {
			return err
		}
		for _, rel := range in.Sel {
			if err := pollCtx(op.ctx, op.rowIdx); err != nil {
				return err
			}
			op.rowIdx++
			pos := int(in.Base) + int(rel)
			op.cpu.Scalar(2)
			op.cpu.RandomRead(region, op.col.Addr(pos), size)
			isNull := op.col.Null(pos)
			positions = append(positions, uint32(pos))
			nulls = append(nulls, isNull)
			if isNull {
				keys = append(keys, expr.Value{})
			} else {
				keys = append(keys, op.col.Value(pos))
			}
		}
	}
	idx := make([]int, len(positions))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		i, j := idx[a], idx[b]
		// NULLs sort last, as in most engines' default.
		switch {
		case nulls[i] && nulls[j]:
			return false
		case nulls[i]:
			return false
		case nulls[j]:
			return true
		}
		if op.desc {
			return keys[i].Compare(expr.Gt, keys[j])
		}
		return keys[i].Compare(expr.Lt, keys[j])
	})
	// Charge ~n log2 n comparisons at two instructions each.
	if n := len(idx); n > 1 {
		logN := 0
		for v := n; v > 1; v >>= 1 {
			logN++
		}
		op.cpu.Scalar(2 * n * logN)
	}
	op.sorted = make([]uint32, len(idx))
	for o, i := range idx {
		op.sorted[o] = positions[i]
	}
	return nil
}

func (op *sortOp) Close() error { return op.input.Close() }

// emptyOp is the physical form of an optimizer-pruned plan: an immediately
// exhausted stream.
type emptyOp struct {
	reason string
	stats  opStats
}

func (op *emptyOp) Describe() string { return fmt.Sprintf("EmptyResult(%s)", op.reason) }

func (op *emptyOp) Stats() OperatorStats { return op.stats.snapshot(op.Describe()) }

func (op *emptyOp) setCountOnly(bool) {}

func (op *emptyOp) Open(context.Context, *mach.CPU) error { return nil }

func (op *emptyOp) Next() (Batch, error) { return Batch{}, EOS }

func (op *emptyOp) Close() error { return nil }

// projectOp materializes the selected columns for qualifying positions,
// batch-at-a-time, up to its materialization cap (the LIMIT pushdown hint
// or maxMaterializedRows). Count passes through uncapped so the qualifying
// total stays exact for the batches it consumes.
type projectOp struct {
	input   positionStream
	tbl     *column.Table
	columns []string
	cap     int // max rows to materialize (0 = maxMaterializedRows)
	// unbounded lifts the default cap (Options.UnboundedRows): a streaming
	// driver is consuming batches as they are produced, so the full result
	// never accumulates in memory. An explicit LIMIT cap still applies.
	unbounded bool

	ctx         context.Context
	cpu         *mach.CPU
	cols        []*column.Column
	regions     []int
	anyNullable bool
	remaining   int
	rowIdx      int
	stats       opStats
}

func (op *projectOp) Describe() string {
	return fmt.Sprintf("Projection[%s]", strings.Join(op.columns, ", "))
}

func (op *projectOp) Stats() OperatorStats { return op.stats.snapshot(op.Describe()) }

func (op *projectOp) child() Operator { return op.input }

// shape pre-sets the projected column names so empty results keep their
// header.
func (op *projectOp) shape(qr *QueryResult) { qr.Columns = op.columns }

func (op *projectOp) Open(ctx context.Context, cpu *mach.CPU) error {
	if err := op.input.Open(ctx, cpu); err != nil {
		return err
	}
	op.ctx, op.cpu = ctx, cpu
	op.cols = make([]*column.Column, len(op.columns))
	op.regions = make([]int, len(op.columns))
	op.anyNullable = false
	for i, name := range op.columns {
		c, err := op.tbl.Column(name)
		if err != nil {
			return err
		}
		op.cols[i] = c
		op.regions[i] = cpu.NewRandomRegion()
		if c.HasNulls() {
			op.anyNullable = true
		}
	}
	op.remaining = op.cap
	if op.remaining <= 0 || (!op.unbounded && op.remaining > maxMaterializedRows) {
		op.remaining = maxMaterializedRows
		if op.unbounded {
			op.remaining = math.MaxInt
		}
	}
	op.rowIdx = 0
	return nil
}

func (op *projectOp) Next() (Batch, error) {
	defer op.stats.timed()()
	in, err := op.input.Next()
	if err != nil {
		return Batch{}, err
	}
	op.stats.noteIn(in)
	out := Batch{Base: in.Base, Count: in.Count}
	rowBytes := int64(bytesPerRowBase + len(op.cols)*bytesPerRowCell)
	for _, rel := range in.Sel {
		if op.remaining <= 0 {
			break
		}
		if err := pollCtx(op.ctx, op.rowIdx); err != nil {
			return Batch{}, err
		}
		op.rowIdx++
		pos := int(in.Base) + int(rel)
		// Projected rows are retained in the final result: charge without
		// release.
		if err := govern.Charge(op.ctx, rowBytes); err != nil {
			return Batch{}, err
		}
		row := make(Row, len(op.cols))
		var nullRow []bool
		if op.anyNullable {
			nullRow = make([]bool, len(op.cols))
		}
		for i, c := range op.cols {
			op.cpu.Scalar(2)
			op.cpu.RandomRead(op.regions[i], c.Addr(pos), c.Type().Size())
			row[i] = c.Value(pos)
			if op.anyNullable && c.Null(pos) {
				nullRow[i] = true
			}
		}
		out.Rows = append(out.Rows, row)
		if op.anyNullable {
			out.RowNulls = append(out.RowNulls, nullRow)
		}
		op.remaining--
	}
	op.stats.noteOut(out)
	return out, nil
}

func (op *projectOp) Close() error { return op.input.Close() }

// limitOp caps a row stream at n rows and — the pipelined executor's whole
// point — stops pulling from its child once satisfied, so upstream scan
// chunks (and parallel morsels) beyond the first qualifying ones never
// run. Over an aggregate stream it is a pass-through (one row). Under a
// LIMIT the delivered Count is capped at n.
type limitOp struct {
	input Operator
	n     int
	// overRows is set when the child streams materialized rows (a
	// projection); only then does row counting terminate the stream.
	overRows bool

	emitted int
	stats   opStats
}

func (op *limitOp) Describe() string { return fmt.Sprintf("Limit[%d]", op.n) }

func (op *limitOp) Stats() OperatorStats { return op.stats.snapshot(op.Describe()) }

func (op *limitOp) child() Operator { return op.input }

// shape delegates to the child so headers survive the wrapper.
func (op *limitOp) shape(qr *QueryResult) {
	if s, ok := op.input.(resultShaper); ok {
		s.shape(qr)
	}
}

func (op *limitOp) Open(ctx context.Context, cpu *mach.CPU) error {
	op.emitted = 0
	return op.input.Open(ctx, cpu)
}

func (op *limitOp) Next() (Batch, error) {
	defer op.stats.timed()()
	if op.overRows && op.emitted >= op.n {
		// Satisfied: end the stream without pulling the child again — the
		// short-circuit that cancels upstream work.
		return Batch{}, EOS
	}
	b, err := op.input.Next()
	if err != nil {
		return Batch{}, err
	}
	op.stats.noteIn(b)
	if op.overRows {
		take := op.n - op.emitted
		if take < 0 {
			take = 0
		}
		if len(b.Rows) > take {
			b.Rows = b.Rows[:take]
			if len(b.RowNulls) > take {
				b.RowNulls = b.RowNulls[:take]
			}
		}
		op.emitted += len(b.Rows)
		// Under a LIMIT the delivered count is the rows handed out.
		b.Count = len(b.Rows)
	}
	op.stats.noteOut(b)
	return b, nil
}

func (op *limitOp) Close() error { return op.input.Close() }
