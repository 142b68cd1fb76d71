// Package pqp implements physical query plans: the LQP translator of
// Figure 9 turns an optimized logical plan into executable operators,
// invoking the JIT compiler for every FusedChain tag (the paper's drop-in
// replacement for consecutive scans), and the executor runs the operator
// tree against the machine model.
//
// Execution is batch-pipelined (Volcano-with-vectors): operators implement
// Open/Next/Close and exchange Batch values — bounded, chunk-relative
// selection vectors — instead of materializing whole-table position lists
// between operators. The scan kernels' per-chunk results feed the pipeline
// directly, LIMIT stops pulling (cancelling remaining parallel morsels),
// and peak memory is O(in-flight batches x chunk), extending the paper's
// "never materialize intermediates" principle from the fused kernel to the
// whole plan. Drive drains the root into a QueryResult, so the public
// engine API is unchanged.
package pqp

import (
	"context"
	"fmt"
	"strings"

	"fusedscan/internal/column"
	"fusedscan/internal/expr"
	"fusedscan/internal/jit"
	"fusedscan/internal/lqp"
	"fusedscan/internal/mach"
	"fusedscan/internal/scan"
	"fusedscan/internal/vec"
)

// Options configure physical plan generation.
type Options struct {
	// Native selects the native turbo path for predicate chains: generated
	// SWAR kernels over the typed column bytes, no emulated instructions,
	// no machine-model accounting. It takes precedence over UseFused and is
	// chosen by the engine whenever the caller does not request simulated
	// hardware counters (Config.Simulate == false).
	Native bool
	// UseFused selects the JIT-generated Fused Table Scan for predicate
	// chains; when false, chains run on the scalar SISD operator (the
	// "regular query plan" of Figure 8).
	UseFused bool
	// Width is the vector register width for fused operators.
	Width vec.Width
	// ISA is the instruction-set dialect for fused operators.
	ISA vec.ISA
	// Cores > 1 turns predicate-chain scans into morsel-driven parallel
	// batch producers (see internal/parallel); when simulating, each
	// worker gets its own simulated CPU built from Params. Downstream
	// operators still consume one ordered stream.
	Cores int
	// MorselRows is the morsel size of predicate-chain scans at any core
	// count; defaults to BatchRows.
	MorselRows int
	// Params is the machine calibration for parallel workers' CPUs.
	Params mach.Params
	// BatchRows overrides the pipeline batch capacity (default one scan
	// chunk, 1<<16). Tests use small values to exercise batch boundaries.
	BatchRows int
	// UnboundedRows lifts the projection's default materialization cap
	// (LIMIT pushdown still applies). Streaming drivers set it: rows leave
	// through a BatchSink batch-by-batch, so materializing the full result
	// never holds more than one batch in memory.
	UnboundedRows bool
}

// DefaultOptions is the paper's best configuration: AVX-512 at 512 bits.
func DefaultOptions() Options {
	return Options{UseFused: true, Width: vec.W512, ISA: vec.IsaAVX512}
}

func (o Options) batchRows() int {
	if o.BatchRows > 0 {
		return o.BatchRows
	}
	return defaultBatchRows
}

// Row is one materialized output row.
type Row []expr.Value

// QueryResult is the output of executing a physical plan.
type QueryResult struct {
	// Count is the COUNT(*) value for aggregate queries, and the number
	// of qualifying rows otherwise (capped at LIMIT n when one applies —
	// the pipeline stops early, so rows beyond the limit are never
	// counted).
	Count int64
	// Aggregates holds one value per aggregate item when IsAggregate is
	// set (Int64 for integer SUM/COUNT — wrapping on overflow like the
	// C++ operator would — Float64 for float SUM and every AVG, the
	// column's own type for MIN/MAX). AggLabels names them.
	Aggregates  []expr.Value
	AggLabels   []string
	IsAggregate bool
	// Columns names the projected columns (empty for aggregate queries).
	Columns []string
	// Rows holds materialized output (empty for aggregate queries),
	// capped by LIMIT. RowNulls, when non-nil, marks NULL cells (same
	// shape as Rows).
	Rows     []Row
	RowNulls [][]bool
}

// Operator is one physical operator in the batch pipeline.
//
// Lifecycle: Open prepares the operator (and its children) for a run;
// Next returns the next batch or EOS when the stream is exhausted; Close
// releases resources and cascades to children. Close must be safe to call
// after a failed Open or mid-stream (the LIMIT short-circuit path), and
// cancels any outstanding upstream work (parallel morsels). Execution
// honours ctx: operators check for cancellation at batch boundaries and
// every few thousand rows in per-position loops, returning ctx.Err().
type Operator interface {
	// Describe renders the operator for EXPLAIN output.
	Describe() string
	Open(ctx context.Context, cpu *mach.CPU) error
	Next() (Batch, error)
	Close() error
	// Stats snapshots the operator's runtime counters (EXPLAIN ANALYZE).
	Stats() OperatorStats
}

// resultShaper is implemented by operators that determine the result
// frame (column headers, aggregate labels) so the driver can shape even
// an empty result correctly before any batch flows.
type resultShaper interface {
	shape(*QueryResult)
}

// Plan is an executable physical plan.
type Plan struct {
	Root Operator
	// Programs lists the JIT programs the plan uses (for EXPLAIN and the
	// compile-cost accounting).
	Programs []*jit.Program
	// Degraded is set when JIT compilation or kernel binding failed and the
	// plan fell back to the scalar SISD scan path instead of failing the
	// query. DegradedReason records why.
	Degraded       bool
	DegradedReason string
	// NativeScans counts scan leaves using the native SWAR path. Such scans
	// fuse the predicate chain like the JIT path but produce no Programs.
	NativeScans int
}

// buildChilder is implemented by operators with a second (build-side)
// subtree — the hash join. Walks render it under a "Build:" heading before
// the main spine continues through child().
type buildChilder interface {
	buildChild() Operator
}

// Format renders the physical operator tree. A join's build subtree is
// rendered under an indented "Build:" heading before the probe side
// continues the spine — matching the logical plan's rendering.
func (p *Plan) Format() string {
	var sb strings.Builder
	var walk func(op Operator, depth int)
	walk = func(op Operator, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(op.Describe())
		sb.WriteByte('\n')
		if b, ok := op.(buildChilder); ok && b.buildChild() != nil {
			sb.WriteString(strings.Repeat("  ", depth+1))
			sb.WriteString("Build:\n")
			walk(b.buildChild(), depth+2)
		}
		if c, ok := op.(interface{ child() Operator }); ok && c.child() != nil {
			walk(c.child(), depth+1)
		}
	}
	walk(p.Root, 0)
	return sb.String()
}

// Run executes the plan: it drives the batch pipeline and assembles the
// public QueryResult.
func (p *Plan) Run(ctx context.Context, cpu *mach.CPU) (QueryResult, error) {
	return Drive(ctx, p.Root, cpu)
}

// RunTo executes the plan streaming row batches into sink (see DriveTo).
func (p *Plan) RunTo(ctx context.Context, cpu *mach.CPU, sink BatchSink) (QueryResult, error) {
	return DriveTo(ctx, p.Root, cpu, sink)
}

// Shape returns the result frame the plan will produce — column headers,
// aggregate labels — without executing anything. Streaming drivers use it
// to emit the header before the first batch arrives.
func (p *Plan) Shape() QueryResult {
	var qr QueryResult
	if s, ok := p.Root.(resultShaper); ok {
		s.shape(&qr)
	}
	return qr
}

// OperatorStats snapshots every operator's runtime counters, root first
// (same pre-order as Format — a join's build subtree precedes its probe
// side). Each entry records its tree depth for indentation.
func (p *Plan) OperatorStats() []OperatorStats {
	var out []OperatorStats
	var walk func(op Operator, depth int)
	walk = func(op Operator, depth int) {
		st := op.Stats()
		st.Depth = depth
		out = append(out, st)
		if b, ok := op.(buildChilder); ok && b.buildChild() != nil {
			// The build subtree sits under the rendered "Build:" heading.
			walk(b.buildChild(), depth+2)
		}
		if c, ok := op.(interface{ child() Operator }); ok && c.child() != nil {
			walk(c.child(), depth+1)
		}
	}
	if p.Root != nil {
		walk(p.Root, 0)
	}
	return out
}

// PerCore returns the parallel scan workers' counters after a simulated
// run with Options.Cores > 1 — every scan leaf's workers, a join's build
// side included, concatenated in plan pre-order (nil when the plan ran
// single-core or native).
func (p *Plan) PerCore() []mach.Counters {
	var out []mach.Counters
	var walk func(op Operator)
	walk = func(op Operator) {
		if pc, ok := op.(interface{ perCoreCounters() []mach.Counters }); ok {
			out = append(out, pc.perCoreCounters()...)
		}
		if b, ok := op.(buildChilder); ok && b.buildChild() != nil {
			walk(b.buildChild())
		}
		if c, ok := op.(interface{ child() Operator }); ok && c.child() != nil {
			walk(c.child())
		}
	}
	if p.Root != nil {
		walk(p.Root)
	}
	return out
}

// Drive is the thin driver at the top of the pipeline: it opens the root,
// drains batches until EOS, concatenates them into a QueryResult and
// closes the tree (which cancels any upstream work still outstanding).
func Drive(ctx context.Context, root Operator, cpu *mach.CPU) (QueryResult, error) {
	return DriveTo(ctx, root, cpu, nil)
}

// BatchSink receives each batch as it leaves the plan root during a
// streaming drive. A batch is only valid for the duration of the call; a
// non-nil return aborts the drive with that error (after closing the tree,
// which cancels outstanding upstream work).
type BatchSink func(Batch) error

// DriveTo is Drive with batch-by-batch delivery: when sink is non-nil,
// materialized rows are handed to the sink as each batch arrives instead of
// being accumulated in the QueryResult — the returned result then carries
// the exact Count, columns and aggregates but no Rows, and peak memory
// stays O(one batch) no matter how large the result set is. This is what
// the query service's chunked HTTP streaming drives. A nil sink reduces to
// Drive.
func DriveTo(ctx context.Context, root Operator, cpu *mach.CPU, sink BatchSink) (QueryResult, error) {
	var qr QueryResult
	if s, ok := root.(resultShaper); ok {
		s.shape(&qr)
	}
	if err := root.Open(ctx, cpu); err != nil {
		root.Close()
		return QueryResult{}, err
	}
	defer root.Close()
	for {
		b, err := root.Next()
		if err == EOS {
			break
		}
		if err != nil {
			return QueryResult{}, err
		}
		qr.Count += int64(b.Count)
		if b.Aggregates != nil {
			qr.Aggregates = b.Aggregates
		}
		if sink != nil {
			if err := sink(b); err != nil {
				return QueryResult{}, err
			}
			continue
		}
		qr.Rows = append(qr.Rows, b.Rows...)
		qr.RowNulls = append(qr.RowNulls, b.RowNulls...)
	}
	return qr, nil
}

// Translate lowers an optimized logical plan into a physical plan,
// compiling fused operators through the given JIT compiler.
func Translate(lp *lqp.Plan, comp *jit.Compiler, opts Options) (*Plan, error) {
	if !opts.Width.Valid() {
		return nil, fmt.Errorf("pqp: invalid register width %d", int(opts.Width))
	}
	p := &Plan{}
	root, err := translateNode(lp.Root, lp.Table, comp, opts, p)
	if err != nil {
		return nil, err
	}
	p.Root = root
	return p, nil
}

func translateNode(n lqp.Node, tbl *column.Table, comp *jit.Compiler, opts Options, p *Plan) (Operator, error) {
	switch t := n.(type) {
	case *lqp.StoredTable:
		return newFullScan(t.Table, opts.batchRows()), nil

	case *lqp.EmptyResult:
		return &emptyOp{reason: t.Reason}, nil

	case *lqp.FusedChain:
		ch, err := buildChain(tbl, t.Preds)
		if err != nil {
			return nil, err
		}
		return newScanLeaf(t, tbl, ch, comp, opts, p)

	case *lqp.IndexScan:
		return translateIndexScan(t, tbl, opts, p)

	case *lqp.Join:
		return translateJoin(t, tbl, comp, opts, p)

	case *lqp.GroupBy:
		return translateGroupBy(t, tbl, comp, opts, p)

	case *lqp.Predicate:
		// An untagged predicate (optimizer not run): a filter over the
		// position stream of whatever sits below — the regular query plan
		// the fused operator replaces, now exchanging bounded batches.
		if t.OnBuild {
			// A build-side predicate still on the spine can only be
			// evaluated after PushPredicatesThroughJoin moves it into the
			// build subtree; the engine always optimizes before translating.
			return nil, fmt.Errorf("pqp: build-side predicate %s above the join; optimize the plan before translating", t.Pred)
		}
		child, err := translateNode(t.Input, tbl, comp, opts, p)
		if err != nil {
			return nil, err
		}
		src, ok := child.(positionStream)
		if !ok {
			return nil, fmt.Errorf("pqp: predicate over non-positional input %T", child)
		}
		if !t.Pred.Bound() {
			return nil, fmt.Errorf("pqp: predicate %s has an unbound parameter; bind the plan before translating", t.Pred)
		}
		col, err := tbl.Column(t.Pred.Column)
		if err != nil {
			return nil, err
		}
		pred := scan.Pred{Col: col, Kind: t.Pred.Kind, Op: t.Pred.Op, Value: t.Pred.Value}
		if err := (scan.Chain{pred}).Validate(); err != nil {
			return nil, err
		}
		return &filterOp{input: src, pred: pred}, nil

	case *lqp.Aggregate:
		child, err := translateNode(t.Input, tbl, comp, opts, p)
		if err != nil {
			return nil, err
		}
		src, ok := child.(positionStream)
		if !ok {
			return nil, fmt.Errorf("pqp: aggregate over non-positional input %T", child)
		}
		op := &aggOp{input: src}
		for _, item := range t.Items {
			op.labels = append(op.labels, item.Label())
			ai := aggItem{kind: item.Kind}
			if item.Kind != lqp.AggCount {
				col, err := tbl.Column(item.Col)
				if err != nil {
					return nil, err
				}
				ai.col = col
			}
			op.items = append(op.items, ai)
		}
		if op.countOnly() {
			// All items are COUNT(*): the stream below never needs position
			// vectors, only exact per-batch counts.
			src.setCountOnly(true)
		}
		return op, nil

	case *lqp.Projection:
		child, err := translateNode(t.Input, tbl, comp, opts, p)
		if err != nil {
			return nil, err
		}
		src, ok := child.(positionStream)
		if !ok {
			return nil, fmt.Errorf("pqp: projection over non-positional input %T", child)
		}
		if jn := findJoin(t.Input); jn != nil {
			// Two-table output: each column is side-resolved, and the
			// operator reads probe columns at Base+Sel[i] and build columns
			// at BuildSel[i] from the join's pair batches.
			return translateJoinProjection(t, src, tbl, jn, opts)
		}
		cols := t.Columns
		if t.Star {
			cols = tbl.ColumnNames()
		}
		return &projectOp{input: src, tbl: tbl, columns: cols, cap: t.MaxRows, unbounded: opts.UnboundedRows}, nil

	case *lqp.Sort:
		if findJoin(t.Input) != nil {
			// The sort re-emits bare position batches and would drop the
			// join's pair structure (BuildSel).
			return nil, fmt.Errorf("pqp: ORDER BY over a join is not supported")
		}
		child, err := translateNode(t.Input, tbl, comp, opts, p)
		if err != nil {
			return nil, err
		}
		src, ok := child.(positionStream)
		if !ok {
			return nil, fmt.Errorf("pqp: sort over non-positional input %T", child)
		}
		col, err := tbl.Column(t.Col)
		if err != nil {
			return nil, err
		}
		return &sortOp{input: src, col: col, desc: t.Desc, batchRows: opts.batchRows()}, nil

	case *lqp.Limit:
		child, err := translateNode(t.Input, tbl, comp, opts, p)
		if err != nil {
			return nil, err
		}
		lim := &limitOp{input: child, n: t.N}
		switch c := child.(type) {
		case *projectOp:
			lim.overRows = true
			// Unoptimized plans carry no MaxRows hint; cap the projection
			// here so it stops materializing at the limit either way.
			if c.cap == 0 || t.N < c.cap {
				c.cap = t.N
			}
		case *joinProjectOp:
			lim.overRows = true
			c.capAt(t.N)
		case *groupOp:
			// Grouped output streams materialized rows; the zero-key form
			// emits a single aggregate batch and needs no row counting.
			if len(c.keys) > 0 {
				lim.overRows = true
			}
		}
		return lim, nil

	default:
		return nil, fmt.Errorf("pqp: cannot translate %T", n)
	}
}

// findJoin walks a logical spine (following Child) and returns the first
// Join node, or nil. Operators above a join use it to locate the build
// table for side-resolved column references. The walk stops at a GroupBy:
// a grouped sink re-shapes the stream into plain rows, so nothing above it
// sees pair batches.
func findJoin(n lqp.Node) *lqp.Join {
	for ; n != nil; n = n.Child() {
		switch t := n.(type) {
		case *lqp.Join:
			return t
		case *lqp.GroupBy:
			return nil
		}
	}
	return nil
}

// hasEmptyResult reports whether the spine below n was collapsed to an
// EmptyResult (collapseEmptyJoin, contradiction pruning). It stops at the
// same boundaries findJoin walks, so `findJoin(n) == nil &&
// hasEmptyResult(n)` identifies a subtree whose join — and build table —
// were optimized away.
func hasEmptyResult(n lqp.Node) bool {
	for ; n != nil; n = n.Child() {
		if _, ok := n.(*lqp.EmptyResult); ok {
			return true
		}
	}
	return false
}

// kernelFamily is a scan's per-morsel (or per-window) kernel constructor
// with its EXPLAIN label and execution-path tag.
type kernelFamily struct {
	build func(scan.Chain) (scan.Kernel, error)
	name  string
	path  string
}

// pickKernels is the one kernel-selection point: native SWAR kernels when
// the machine model is off, the scalar SISD scan when fusion is off, and
// otherwise the fused kernel. A non-nil comp serves static chains from the
// JIT program cache; nil selects the direct scan.NewFused constructor for
// chains the cache could never reuse — a join probe mutated at Open time
// (Bloom injection), per-window index residuals and per-batch join
// residuals.
//
// A non-empty ch is probed once (compiled, for the JIT family): a chain
// the chosen family cannot build falls back to the scalar scan — same
// results, slower — and marks the plan Degraded instead of failing the
// query (graceful degradation). Only a chain SISD rejects too surfaces the
// original error. A join's residual evaluator passes a nil ch and p: its
// chain exists only at run time, and it is not a scan leaf of the plan.
func pickKernels(ch scan.Chain, comp *jit.Compiler, opts Options, p *Plan) (kernelFamily, error) {
	var f kernelFamily
	var err error
	switch {
	case opts.Native:
		f = kernelFamily{func(sub scan.Chain) (scan.Kernel, error) { return scan.NewNative(sub) },
			"NativeTableScan(SWAR)", PathNative}
	case !opts.UseFused:
		f = kernelFamily{sisdKernel, "TableScan(SISD)", PathScalar}
	case comp != nil:
		var prog *jit.Program
		if _, prog, err = comp.CompileChain(ch, opts.Width, opts.ISA); err == nil {
			p.Programs = append(p.Programs, prog)
			f = kernelFamily{func(sub scan.Chain) (scan.Kernel, error) {
				k, _, err := comp.CompileChain(sub, opts.Width, opts.ISA)
				return k, err
			}, fmt.Sprintf("FusedTableScan[%s]", prog.Sig.Key()), PathEmulated}
		}
	default:
		f = kernelFamily{func(sub scan.Chain) (scan.Kernel, error) { return scan.NewFused(sub, opts.Width, opts.ISA) },
			"FusedTableScan(direct)", PathEmulated}
	}
	if err == nil && comp == nil && len(ch) > 0 {
		_, err = f.build(ch)
	}
	if err != nil {
		if _, serr := scan.NewSISD(ch); serr != nil {
			return kernelFamily{}, err
		}
		p.Degraded = true
		p.DegradedReason = fmt.Sprintf("kernel unavailable, using scalar scan: %v", err)
		return kernelFamily{sisdKernel, "TableScan(SISD, degraded)", PathScalarFallback}, nil
	}
	if opts.Native && p != nil {
		p.NativeScans++
	}
	return f, nil
}

func sisdKernel(sub scan.Chain) (scan.Kernel, error) { return scan.NewSISD(sub) }

// newScanLeaf lowers a fused chain over a stored table to the scan leaf
// that drives it morsel by morsel. comp is nil for a join's probe chain,
// which stays mutable for Bloom injection.
func newScanLeaf(fc *lqp.FusedChain, tbl *column.Table, ch scan.Chain, comp *jit.Compiler, opts Options, p *Plan) (*scanOp, error) {
	if _, ok := fc.Input.(*lqp.StoredTable); !ok {
		return nil, fmt.Errorf("pqp: fused chain must sit directly on a stored table, found %T", fc.Input)
	}
	kern, err := pickKernels(ch, comp, opts, p)
	if err != nil {
		return nil, err
	}
	op := &scanOp{
		tbl: tbl, chain: ch, kern: kern, estSel: fc.EstSel, stopAfter: fc.StopAfter,
		cores: opts.Cores, morselRows: opts.MorselRows,
	}
	if op.morselRows <= 0 {
		op.morselRows = opts.batchRows()
	}
	if !opts.Native {
		op.params = &opts.Params
	}
	return op, nil
}

// translateJoin lowers a Join node: the build side translates against the
// build table (static chains keep the JIT path), the probe side uses the
// join kernel family, and key/residual references resolve per side.
func translateJoin(t *lqp.Join, tbl *column.Table, comp *jit.Compiler, opts Options, p *Plan) (Operator, error) {
	buildOp, err := translateNode(t.Build, t.BuildTable, comp, opts, p)
	if err != nil {
		return nil, err
	}
	bsrc, ok := buildOp.(positionStream)
	if !ok {
		return nil, fmt.Errorf("pqp: join build side is non-positional (%T)", buildOp)
	}
	var probeOp Operator
	var probeScan *scanOp
	if fc, ok := t.Input.(*lqp.FusedChain); ok {
		var ch scan.Chain
		if ch, err = buildChain(tbl, fc.Preds); err == nil {
			probeScan, err = newScanLeaf(fc, tbl, ch, nil, opts, p)
			probeOp = probeScan
		}
	} else {
		probeOp, err = translateNode(t.Input, tbl, comp, opts, p)
	}
	if err != nil {
		return nil, err
	}
	psrc, ok := probeOp.(positionStream)
	if !ok {
		return nil, fmt.Errorf("pqp: join probe side is non-positional (%T)", probeOp)
	}
	probeKey, err := tbl.Column(t.ProbeKey)
	if err != nil {
		return nil, err
	}
	buildKey, err := t.BuildTable.Column(t.BuildKey)
	if err != nil {
		return nil, err
	}
	residuals := make([]joinResidual, 0, len(t.Residuals))
	for _, r := range t.Residuals {
		pc, err := tbl.Column(r.Probe)
		if err != nil {
			return nil, err
		}
		bc, err := t.BuildTable.Column(r.Build)
		if err != nil {
			return nil, err
		}
		residuals = append(residuals, joinResidual{probeCol: pc, buildCol: bc, op: r.Op})
	}
	residualKernels, err := pickKernels(nil, nil, opts, nil)
	if err != nil {
		return nil, err
	}
	label := t.KeyLabel
	for _, r := range t.Residuals {
		label += " AND " + r.Label
	}
	return &joinOp{
		probe: psrc, build: bsrc, probeScan: probeScan,
		probeKey: probeKey, buildKey: buildKey, keyType: t.KeyType,
		residuals: residuals, transfer: t.Transfer,
		kernBuild: residualKernels.build, space: tbl.Space(), label: label,
	}, nil
}

// translateGroupBy lowers a grouped-aggregation sink, resolving key and
// aggregate columns per side (the build table comes from the Join below,
// when there is one).
func translateGroupBy(t *lqp.GroupBy, tbl *column.Table, comp *jit.Compiler, opts Options, p *Plan) (Operator, error) {
	child, err := translateNode(t.Input, tbl, comp, opts, p)
	if err != nil {
		return nil, err
	}
	src, ok := child.(positionStream)
	if !ok {
		return nil, fmt.Errorf("pqp: group by over non-positional input %T", child)
	}
	jn := findJoin(t.Input)
	// When collapseEmptyJoin proved a side empty the Join node — and with
	// it the build table — is gone from the plan. No rows will ever reach
	// the sink, so unresolvable columns stay nil and are never read.
	emptied := jn == nil && hasEmptyResult(t.Input)
	side := func(ref lqp.ColRef) (*column.Column, error) {
		if ref.Build {
			if jn == nil {
				if emptied {
					return nil, nil
				}
				return nil, fmt.Errorf("pqp: build-side column %q with no join below", ref.Name)
			}
			return jn.BuildTable.Column(ref.Col)
		}
		return tbl.Column(ref.Col)
	}
	op := &groupOp{input: src, batchRows: opts.batchRows()}
	for _, k := range t.Keys {
		col, err := side(k)
		if err != nil {
			return nil, err
		}
		op.keys = append(op.keys, groupCol{col: col, build: k.Build})
		op.keyNames = append(op.keyNames, k.Name)
	}
	for _, it := range t.Items {
		op.labels = append(op.labels, it.Label())
		ga := groupAgg{kind: it.Kind}
		if it.Kind != lqp.AggCount {
			col, err := side(it.Col)
			if err != nil {
				return nil, err
			}
			ga.col = col
			ga.bld = it.Col.Build
		}
		op.items = append(op.items, ga)
	}
	return op, nil
}

// translateJoinProjection lowers a projection whose input carries join
// pair batches: every output column is side-resolved.
func translateJoinProjection(t *lqp.Projection, src positionStream, tbl *column.Table, jn *lqp.Join, opts Options) (Operator, error) {
	op := &joinProjectOp{input: src, capRows: t.MaxRows, unbounded: opts.UnboundedRows}
	add := func(c *column.Column, build bool, name string) {
		op.cols = append(op.cols, projCol{col: c, build: build})
		op.names = append(op.names, name)
	}
	if t.Star {
		// SELECT * over a join: all probe columns then all build columns,
		// qualified so same-named columns stay distinguishable.
		for _, c := range tbl.Columns() {
			add(c, false, tbl.Name()+"."+c.Name())
		}
		for _, c := range jn.BuildTable.Columns() {
			add(c, true, jn.BuildTable.Name()+"."+c.Name())
		}
		return op, nil
	}
	if len(t.Refs) != len(t.Columns) {
		return nil, fmt.Errorf("pqp: projection over a join lacks side-resolved column refs")
	}
	for i, ref := range t.Refs {
		var c *column.Column
		var err error
		if ref.Build {
			c, err = jn.BuildTable.Column(ref.Col)
		} else {
			c, err = tbl.Column(ref.Col)
		}
		if err != nil {
			return nil, err
		}
		add(c, ref.Build, t.Columns[i])
	}
	return op, nil
}

// buildChain resolves logical predicates to a scan.Chain over the table's
// columns. Every predicate must be bound: a plan skeleton still awaiting
// $n parameters (see lqp.Plan.Bind) cannot be lowered to kernels.
func buildChain(tbl *column.Table, preds []expr.Predicate) (scan.Chain, error) {
	var ch scan.Chain
	for _, p := range preds {
		if !p.Bound() {
			return nil, fmt.Errorf("pqp: predicate %s has an unbound parameter; bind the plan before translating", p)
		}
		col, err := tbl.Column(p.Column)
		if err != nil {
			return nil, err
		}
		ch = append(ch, scan.Pred{Col: col, Kind: p.Kind, Op: p.Op, Value: p.Value})
	}
	if err := ch.Validate(); err != nil {
		return nil, err
	}
	return ch, nil
}
