package fusedscan

// Prepared statements and the shared governed execution path.
//
// Prepare parses a statement once, normalizes it to a canonical shape
// (every literal replaced by a $n placeholder), and plans that shape into
// an optimized logical-plan skeleton kept in the engine's LRU plan cache.
// Execute then binds arguments into a clone of the skeleton and runs it —
// on a cache hit, parsing and optimization are skipped entirely; only
// translation (which the JIT operator cache dedupes below) and execution
// remain. The cache is keyed by (shape, catalog/config epoch), so
// Register, DropTable and SetConfig invalidate every cached plan at once.
//
// Skeletons are optimized without literal values: selectivity estimation
// and unsatisfiability pruning skip parameterized predicates, leaving them
// in source order. That changes simulated cost counters versus an ad-hoc
// plan of the same statement, but never the result bytes — qualifying
// positions are ascending regardless of predicate order — which is why
// Prepared results are byte-identical to Engine.Query on the same SQL.

import (
	"context"
	"fmt"
	"runtime/debug"
	"strings"

	"fusedscan/internal/govern"
	"fusedscan/internal/lqp"
	"fusedscan/internal/mach"
	"fusedscan/internal/parallel"
	"fusedscan/internal/pqp"
	"fusedscan/internal/sqlparse"
)

// QueryOptions extends QueryContext for the serving layer: per-query
// configuration overrides, $n argument binding, batch-streamed results and
// plan-cache routing.
type QueryOptions struct {
	// Config overrides the engine's execution configuration for this query
	// only (e.g. a native-path session on a simulate-default engine). Nil
	// uses the engine configuration.
	Config *Config
	// Args bind the statement's $n placeholders, $1 first. Required exactly
	// when the statement has placeholders.
	Args []string
	// Stream, when non-nil, receives rendered result rows batch by batch as
	// they leave the pipeline instead of accumulating in Result.Rows; peak
	// memory stays O(one batch) regardless of result size. columns repeats
	// the projected column names on every call. Aggregate queries deliver
	// their single row through the same callback after the pipeline drains.
	// A non-nil return aborts the query with that error.
	Stream func(columns []string, rows [][]string) error
	// UsePlanCache routes the statement through the prepared-plan cache:
	// the SQL is parsed and normalized, and the optimized skeleton is
	// fetched from (or planted in) the shared LRU. Statements with Args are
	// always routed through the cache path, since binding requires a
	// parameterized skeleton.
	UsePlanCache bool
	// Session is an opaque fairness key for admission control: when the
	// queue is full, the session holding the most queued queries is
	// displaced before anyone else is shed. Empty groups the query with all
	// other anonymous traffic. The serving layer passes the HTTP session id
	// (or the client address).
	Session string
	// Cheap marks the query for the admission cheap lane — a small reserve
	// of extra concurrency slots for pre-planned short work, so a queue
	// full of heavy ad-hoc scans cannot starve it. Prepared statements set
	// this automatically.
	Cheap bool
}

// execOpts is the internal slice of QueryOptions the shared execution path
// consumes.
type execOpts struct {
	config  *Config
	stream  func(columns []string, rows [][]string) error
	session string
	cheap   bool
}

// QueryWith is QueryContext with QueryOptions. With neither Args nor
// UsePlanCache it is exactly QueryContext (full parse/plan/optimize with
// literal values — the paper's measurement discipline), plus any Config
// override and streaming.
func (e *Engine) QueryWith(ctx context.Context, sql string, qo QueryOptions) (*Result, error) {
	if !qo.UsePlanCache && len(qo.Args) == 0 {
		return e.execute(ctx, sql, nil, execOpts{config: qo.Config, stream: qo.Stream, session: qo.Session, cheap: qo.Cheap})
	}
	makePlan := func(stage *string) (*lqp.Plan, error) {
		sel, err := sqlparse.Parse(sql)
		if err != nil {
			return nil, err
		}
		if sel.NumParams != len(qo.Args) {
			return nil, fmt.Errorf("fusedscan: statement wants %d argument(s), got %d", sel.NumParams, len(qo.Args))
		}
		shape, slots := sqlparse.Normalize(sel)
		skel, err := e.skeleton(shape, stage)
		if err != nil {
			return nil, err
		}
		bound, err := sqlparse.BindSlots(slots, sel.NumParams, qo.Args)
		if err != nil {
			return nil, err
		}
		*stage = stagePlan
		plan := skel.Clone()
		if err := plan.Bind(bound); err != nil {
			return nil, err
		}
		// Skeletons are costed without literal values and always stay on
		// the scan path; with the literals bound, the index-vs-scan choice
		// can now be made exactly.
		e.chooseBoundAccessPath(plan)
		return plan, nil
	}
	return e.execute(ctx, sql, makePlan, execOpts{config: qo.Config, stream: qo.Stream, session: qo.Session, cheap: qo.Cheap})
}

// SetPlanCacheCapacity resizes the prepared-plan cache (entries beyond the
// new capacity are evicted LRU-first). n <= 0 restores the default.
func (e *Engine) SetPlanCacheCapacity(n int) { e.plans.setCapacity(n) }

// skeleton returns the optimized plan skeleton for a normalized statement
// shape, consulting the shared plan cache. The shape is canonical SQL, so a
// miss simply re-parses it, builds and optimizes the plan (parameterized
// predicates stay in source order), and caches it under the current
// catalog/config epoch. On a hit, parse and optimize are skipped.
func (e *Engine) skeleton(shape string, stage *string) (*lqp.Plan, error) {
	key := planKey{shape: shape, epoch: e.epoch.Load()}
	if p, ok := e.plans.get(key); ok {
		return p, nil
	}
	sel, err := sqlparse.Parse(shape)
	if err != nil {
		return nil, err
	}
	*stage = stagePlan
	plan, err := lqp.Build(sel, e)
	if err != nil {
		return nil, err
	}
	e.optimizer.Optimize(plan)
	e.plans.put(key, plan)
	return plan, nil
}

// Prepared is a statement planned once and executable many times with
// different arguments. It is a thin handle — the optimized skeleton lives
// in the engine's shared plan cache, so Prepared values are cheap, safe
// for concurrent use, and automatically replan when the catalog or
// configuration changes underneath them.
type Prepared struct {
	eng       *Engine
	sqlText   string
	shape     string
	slots     []sqlparse.Slot
	numParams int
}

// Prepare parses and normalizes a statement and warms the plan cache with
// its optimized skeleton. The statement may mix $n placeholders and
// literals; literals are captured and re-bound on every execution.
func (e *Engine) Prepare(sql string) (prep *Prepared, err error) {
	stage := stageParse
	defer func() {
		if r := recover(); r != nil {
			prep = nil
			err = &QueryError{
				Stage:    stage,
				Query:    sql,
				Err:      fmt.Errorf("panic: %v", r),
				Panicked: true,
				Stack:    string(debug.Stack()),
			}
		}
	}()
	sel, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	shape, slots := sqlparse.Normalize(sel)
	prep = &Prepared{eng: e, sqlText: sql, shape: shape, slots: slots, numParams: sel.NumParams}
	if _, err := e.skeleton(shape, &stage); err != nil {
		return nil, err
	}
	return prep, nil
}

// NumParams reports how many $n arguments Execute requires.
func (p *Prepared) NumParams() int { return p.numParams }

// Shape returns the normalized statement shape the plan cache is keyed by.
func (p *Prepared) Shape() string { return p.shape }

// SQL returns the original statement text.
func (p *Prepared) SQL() string { return p.sqlText }

// Execute runs the prepared statement with the given arguments ($1 first).
func (p *Prepared) Execute(args ...string) (*Result, error) {
	return p.ExecuteContext(context.Background(), args...)
}

// ExecuteContext is Execute honouring ctx, with the same cancellation,
// panic-isolation and governance behaviour as Engine.QueryContext.
func (p *Prepared) ExecuteContext(ctx context.Context, args ...string) (*Result, error) {
	return p.run(ctx, nil, nil, args)
}

// ExecuteWith is ExecuteContext with QueryOptions (UsePlanCache is implied
// — prepared statements always execute through the cache).
func (p *Prepared) ExecuteWith(ctx context.Context, qo QueryOptions) (*Result, error) {
	return p.runWith(ctx, qo.Config, qo.Stream, qo.Args, qo.Session)
}

func (p *Prepared) run(ctx context.Context, cfg *Config, stream func([]string, [][]string) error, args []string) (*Result, error) {
	return p.runWith(ctx, cfg, stream, args, "")
}

func (p *Prepared) runWith(ctx context.Context, cfg *Config, stream func([]string, [][]string) error, args []string, session string) (*Result, error) {
	if len(args) != p.numParams {
		return nil, fmt.Errorf("fusedscan: prepared statement wants %d argument(s), got %d", p.numParams, len(args))
	}
	makePlan := func(stage *string) (*lqp.Plan, error) {
		skel, err := p.eng.skeleton(p.shape, stage)
		if err != nil {
			return nil, err
		}
		bound, err := sqlparse.BindSlots(p.slots, p.numParams, args)
		if err != nil {
			return nil, err
		}
		*stage = stagePlan
		plan := skel.Clone()
		if err := plan.Bind(bound); err != nil {
			return nil, err
		}
		// Same as QueryWith: the access-path choice needs the bound
		// literals the skeleton never sees.
		p.eng.chooseBoundAccessPath(plan)
		return plan, nil
	}
	// Prepared executions ride the admission cheap lane: their plan is
	// already optimized and cached, so they are exactly the short
	// pre-planned work the lane reserves headroom for.
	return p.eng.execute(ctx, p.sqlText, makePlan, execOpts{config: cfg, stream: stream, session: session, cheap: true})
}

// renderRows converts pipeline value rows into their rendered string form,
// with NULL cells as the literal "NULL".
func renderRows(rows []pqp.Row, nulls [][]bool) [][]string {
	out := make([][]string, len(rows))
	for ri, row := range rows {
		r := make([]string, len(row))
		for i, v := range row {
			if nulls != nil && nulls[ri][i] {
				r[i] = "NULL"
				continue
			}
			r[i] = v.String()
		}
		out[ri] = r
	}
	return out
}

// execute is the one governed execution path under QueryContext, QueryWith
// and Prepared.Execute*: admission control, default deadline, memory
// accounting, stage-tracked panic recovery, translation, the batch
// pipeline, and Result assembly. makePlan produces the bound logical plan
// (advancing *stage as it goes); nil makePlan is the ad-hoc path — parse,
// build and optimize the SQL text with its literal values, bypassing the
// plan cache so simulated counters match the paper's measurement
// discipline exactly.
func (e *Engine) execute(ctx context.Context, sql string, makePlan func(stage *string) (*lqp.Plan, error), eo execOpts) (res *Result, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	gcfg := e.gov.Config()
	if gcfg.DefaultQueryTimeout > 0 {
		if _, has := ctx.Deadline(); !has {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, gcfg.DefaultQueryTimeout)
			defer cancel()
		}
	}
	release, aerr := e.gov.AdmitFor(ctx, govern.AdmitInfo{Session: eo.session, Cheap: eo.cheap})
	if aerr != nil {
		return nil, aerr
	}
	defer release()
	if acct := e.gov.NewAccountant(); acct != nil {
		ctx = govern.WithAccountant(ctx, acct)
	}
	stage := stageParse
	defer recoverStage(&stage, sql, &res, &err)

	var plan *lqp.Plan
	if makePlan == nil {
		stmt, perr := sqlparse.ParseStatement(sql)
		if perr != nil {
			return nil, perr
		}
		if stmt.Select == nil {
			// Index DDL rides the same governed entry point: admission
			// control above already ran, and CreateIndex charges its build
			// against the memory budget.
			stage = stageExecute
			return e.execDDL(stmt)
		}
		sel := stmt.Select
		if sel.NumParams > 0 {
			return nil, fmt.Errorf("fusedscan: statement has %d unbound parameter(s); use Prepare/Execute or QueryWith with Args", sel.NumParams)
		}
		stage = stagePlan
		plan, err = lqp.Build(sel, e)
		if err != nil {
			return nil, err
		}
		e.optimizer.Optimize(plan)
	} else {
		plan, err = makePlan(&stage)
		if err != nil {
			return nil, err
		}
	}

	stage = stageTranslate
	cfg := e.Config()
	if eo.config != nil {
		cfg = *eo.config
	}
	opts, err := cfg.options()
	if err != nil {
		return nil, err
	}
	opts.Params = e.params
	// Streaming consumers drain rows batch-by-batch, so the projection's
	// default materialization cap (a guard against unbounded result memory)
	// is lifted; an explicit LIMIT still applies.
	opts.UnboundedRows = eo.stream != nil
	phys, err := pqp.Translate(plan, e.compiler, opts)
	if err != nil {
		return nil, err
	}

	stage = stageExecute
	cpu := mach.New(e.params)
	var sink pqp.BatchSink
	if eo.stream != nil {
		shape := phys.Shape()
		if !shape.IsAggregate {
			cols := shape.Columns
			sink = func(b pqp.Batch) error {
				if len(b.Rows) == 0 {
					return nil
				}
				return eo.stream(cols, renderRows(b.Rows, b.RowNulls))
			}
		}
	}
	qres, err := phys.RunTo(ctx, cpu, sink)
	if err != nil {
		return nil, err
	}
	res = &Result{
		Count:          qres.Count,
		Columns:        qres.Columns,
		Fused:          len(phys.Programs) > 0 || phys.NativeScans > 0,
		Degraded:       phys.Degraded,
		DegradedReason: phys.DegradedReason,
	}
	if cfg.Simulate {
		res.Report = e.simReport(cpu, phys)
	}
	for _, os := range phys.OperatorStats() {
		res.Operators = append(res.Operators, OperatorStats{
			Name: os.Name, RowsIn: os.RowsIn, RowsOut: os.RowsOut,
			Batches: os.Batches, WallNs: os.WallNs,
			ChunksPruned: os.ChunksPruned, Path: os.Path,
			Depth: os.Depth, BuildRows: os.BuildRows, ProbeRows: os.ProbeRows,
			BloomChecks: os.BloomChecks, BloomPass: os.BloomPass, Groups: os.Groups,
			Encoding: os.Encoding, BytesScanned: os.BytesScanned,
			IndexProbes: os.IndexProbes, IndexRows: os.IndexRows,
		})
		e.bytesScanned.Add(os.BytesScanned)
		e.idxProbes.Add(os.IndexProbes)
		e.idxRows.Add(os.IndexRows)
		if os.IndexProbes > 0 {
			e.idxScans.Add(1)
		}
		if os.Encoding == pqp.EncodingPacked || os.Encoding == pqp.EncodingMixed {
			e.packedScans.Add(1)
		}
		e.pipeBatches.Add(os.Batches)
		e.joinBuildRows.Add(os.BuildRows)
		e.joinProbeRows.Add(os.ProbeRows)
		e.joinBloomChecks.Add(os.BloomChecks)
		e.joinBloomPass.Add(os.BloomPass)
		e.groupsProduced.Add(os.Groups)
	}
	if len(res.Operators) > 0 {
		e.pipeRows.Add(res.Operators[0].RowsOut)
	}
	if qres.IsAggregate {
		// Aggregates render as a one-row result set under their labels;
		// Sum keeps the single-SUM convenience value.
		res.Aggregate = true
		res.Columns = qres.AggLabels
		row := make([]string, len(qres.Aggregates))
		for i, v := range qres.Aggregates {
			row[i] = v.String()
			if strings.HasPrefix(qres.AggLabels[i], "sum(") && res.Sum == "" {
				res.Sum = v.String()
			}
		}
		res.Rows = [][]string{row}
	}
	if len(qres.Rows) > 0 {
		res.Rows = append(res.Rows, renderRows(qres.Rows, qres.RowNulls)...)
	}
	if eo.stream != nil && res.Aggregate {
		// Aggregate results flow through the same streaming callback so the
		// caller sees every row arrive one way.
		if serr := eo.stream(res.Columns, res.Rows); serr != nil {
			return nil, serr
		}
		res.Rows = nil
	}
	return res, nil
}

// simReport assembles the simulated report of a plan that ran on the
// driver CPU cpu. After a parallel scan the counter totals are driver +
// workers, and the runtime comes from the shared-socket model over all
// cores (the driver's downstream work counts as one more core; an idle
// driver, as under a direct scan, adds none).
func (e *Engine) simReport(cpu *mach.CPU, phys *pqp.Plan) *PerfReport {
	hits, _, cached := e.compiler.Stats()
	driver := cpu.Finish()
	report := driver.Report(&e.params)
	if perCore := phys.PerCore(); len(perCore) > 0 {
		all := append([]mach.Counters{}, perCore...)
		if driver != (mach.Counters{}) {
			all = append(all, driver)
		}
		totals := driver
		for _, c := range perCore {
			totals = addCounters(totals, c)
		}
		report = totals.Report(&e.params)
		model := parallel.Combine(e.params, all)
		report.RuntimeMs = model.RuntimeMs
		report.RuntimeCycles = model.RuntimeMs * e.params.ClockGHz * 1e6
		report.MemCycles = model.MemMs * e.params.ClockGHz * 1e6
		report.AchievedGBs = model.AggregateGBs
	}
	pr := perfReport(report, phys.Programs, hits, cached)
	return &pr
}
