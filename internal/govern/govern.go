// Package govern is the engine's resource-governance layer: the
// mechanisms that keep a scan engine serving many concurrent clients
// inside its resource envelope instead of collapsing when load exceeds it.
//
// The paper's fused scan wins by saturating memory bandwidth; once
// concurrent scans oversubscribe that bandwidth (or the process's memory),
// every query degrades together. This package provides the guards the
// engine wires in front of and inside query execution:
//
//   - Governor: an adaptive admission controller with a configurable
//     concurrency limit and a bounded wait queue. When both are full it
//     sheds load with a typed *OverloadedError (errors.Is(err,
//     ErrOverloaded)) whose retry-after hint is derived from the queue's
//     observed drain rate, instead of letting every query slow every
//     other query down. The queue is adaptive: a waiter whose sojourn
//     time exceeds the age target is shed CoDel-style to keep queueing
//     delay bounded, one session cannot monopolize the queue (per-session
//     fairness), a small cheap lane lets prepared statements and other
//     cheap work bypass a queue full of heavy scans, and a query whose
//     deadline budget cannot cover the predicted queue wait plus the
//     observed service time is rejected early with a typed
//     *DeadlineExhaustedError rather than waiting for a slot it can
//     never use.
//   - Accountant: a per-query memory budget charged at materialization
//     points (position lists, sort keys, projected rows). A query that
//     would exceed its budget fails with a typed *MemoryBudgetError
//     (errors.Is(err, ErrMemoryBudget)) instead of OOMing the process.
//   - Breaker: a circuit breaker (see breaker.go) that stops paying JIT
//     compile cost after repeated consecutive failures, with a half-open
//     probe and exponential backoff. The remote HTTP client reuses the
//     same state machine against consecutive 5xx responses.
//   - Retry (see retry.go): bounded retry with jittered backoff for
//     transient faults, honouring an error's own retry-after hint when it
//     carries one (a 429's Retry-After). Used for storage loads and the
//     remote client.
//
// All types are safe for concurrent use. The zero-ish Defaults()
// configuration is fully permissive (no concurrency limit, no memory
// budget, no default deadline) so embedding the engine costs nothing
// until limits are opted into; the breaker alone defaults to enabled
// because it only engages after repeated failures.
package govern

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fusedscan/internal/faultinject"
)

// Sentinel errors for errors.Is. The concrete returned types are
// *OverloadedError, *MemoryBudgetError and *DeadlineExhaustedError, which
// carry diagnostics.
var (
	// ErrOverloaded reports that admission control shed the query: the
	// concurrency limit and wait queue were both full (or queue wait
	// timed out, or the waiter was aged out / displaced for fairness).
	ErrOverloaded = errors.New("govern: engine overloaded")
	// ErrMemoryBudget reports that a query hit its memory budget at a
	// materialization point.
	ErrMemoryBudget = errors.New("govern: query memory budget exceeded")
	// ErrDeadlineExhausted reports that a query's deadline budget was (or
	// would inevitably be) exhausted before it could execute: the time
	// remaining until its deadline cannot cover the predicted queue wait
	// plus the observed per-query service time, or the budget ran out
	// while the query waited in the admission queue.
	ErrDeadlineExhausted = errors.New("govern: deadline budget exhausted")
)

// OverloadedError is the typed rejection admission control returns. It
// satisfies errors.Is(err, ErrOverloaded).
type OverloadedError struct {
	// Running is the concurrency limit in force when the query was shed.
	Running int
	// Queued is how many queries were already waiting.
	Queued int
	// RetryAfter is a hint for when the caller should try again. When the
	// governor has observed queue drain events it is derived from the
	// actual drain rate (queue length over throughput, capped); otherwise
	// it falls back to the configured queue wait.
	RetryAfter time.Duration
	// Cause, when non-nil, records why the rejection happened beyond
	// "full" (a queue-wait timeout, an aged-out or fairness-displaced
	// waiter, or an injected fault in tests).
	Cause error
}

func (e *OverloadedError) Error() string {
	msg := fmt.Sprintf("govern: engine overloaded (%d running, %d queued), retry in ~%v", e.Running, e.Queued, e.RetryAfter)
	if e.Cause != nil {
		msg += ": " + e.Cause.Error()
	}
	return msg
}

// Is makes errors.Is(err, ErrOverloaded) hold.
func (e *OverloadedError) Is(target error) bool { return target == ErrOverloaded }

// Unwrap exposes the cause (if any) to errors.As / errors.Is.
func (e *OverloadedError) Unwrap() error { return e.Cause }

// RetryAfterHint lets Retry (and the remote client) honour the shed
// hint instead of its own backoff schedule.
func (e *OverloadedError) RetryAfterHint() time.Duration { return e.RetryAfter }

// DeadlineExhaustedError is the typed rejection a query gets when its
// deadline budget cannot cover execution: either rejected early (the
// remaining budget is smaller than the predicted queue wait plus the
// observed service time) or after the budget expired in the admission
// queue. It satisfies errors.Is(err, ErrDeadlineExhausted), and — because
// the cause chain ends in context.DeadlineExceeded — also errors.Is(err,
// context.DeadlineExceeded), so deadline-aware callers need no new case.
type DeadlineExhaustedError struct {
	// Remaining is the budget that was left when the query was rejected.
	Remaining time.Duration
	// Needed is the predicted cost that did not fit: queue wait estimate
	// plus the observed per-query service time (zero when the budget
	// simply expired while queued).
	Needed time.Duration
	// Waited is how long the query sat in the admission queue before the
	// rejection (zero for an early rejection at arrival).
	Waited time.Duration
	// RetryAfter hints when a retry with a fresh budget could succeed.
	RetryAfter time.Duration
	// Cause records the underlying trigger; it unwraps to
	// context.DeadlineExceeded.
	Cause error
}

func (e *DeadlineExhaustedError) Error() string {
	if e.Waited > 0 {
		return fmt.Sprintf("govern: deadline budget exhausted after %v in the admission queue", e.Waited.Round(time.Millisecond))
	}
	return fmt.Sprintf("govern: deadline budget exhausted before admission (%v remaining, ~%v needed)",
		e.Remaining.Round(time.Millisecond), e.Needed.Round(time.Millisecond))
}

// Is makes errors.Is(err, ErrDeadlineExhausted) hold.
func (e *DeadlineExhaustedError) Is(target error) bool { return target == ErrDeadlineExhausted }

// Unwrap exposes the cause chain (ending in context.DeadlineExceeded).
func (e *DeadlineExhaustedError) Unwrap() error {
	if e.Cause != nil {
		return e.Cause
	}
	return context.DeadlineExceeded
}

// MemoryBudgetError is the typed failure a query gets when a
// materialization point would push it past its memory budget. It
// satisfies errors.Is(err, ErrMemoryBudget).
type MemoryBudgetError struct {
	// BudgetBytes is the per-query budget in force.
	BudgetBytes int64
	// UsedBytes is what the query had already accounted for.
	UsedBytes int64
	// RequestedBytes is the charge that tripped the budget.
	RequestedBytes int64
}

func (e *MemoryBudgetError) Error() string {
	return fmt.Sprintf("govern: query memory budget exceeded (budget %d B, used %d B, requested %d B more)",
		e.BudgetBytes, e.UsedBytes, e.RequestedBytes)
}

// Is makes errors.Is(err, ErrMemoryBudget) hold.
func (e *MemoryBudgetError) Is(target error) bool { return target == ErrMemoryBudget }

// Config holds every governance knob. The zero value of each field means
// "disabled / unlimited" except where noted.
type Config struct {
	// MaxConcurrent caps how many queries execute simultaneously.
	// 0 disables admission control entirely.
	MaxConcurrent int
	// MaxQueue bounds how many queries may wait for admission once
	// MaxConcurrent are running. 0 means no queueing: excess queries are
	// shed immediately.
	MaxQueue int
	// QueueWait bounds how long one query waits in the admission queue
	// before being shed with ErrOverloaded. 0 means wait until the
	// query's context expires.
	QueueWait time.Duration
	// QueueAgeTarget is the CoDel-style sojourn target: when the queue is
	// full and the oldest waiter has already waited longer than this, the
	// oldest waiter is shed to make room for the newcomer — bounding
	// queueing delay under sustained overload instead of letting the
	// whole queue go stale together. 0 derives it from QueueWait (half),
	// falling back to 100ms.
	QueueAgeTarget time.Duration
	// CheapLaneSlots is how many extra concurrency slots are reserved for
	// cheap queries (prepared EXECUTE and other pre-planned work) so they
	// bypass a queue full of heavy ad-hoc scans. 0 defaults to 1 whenever
	// MaxConcurrent > 0; negative disables the lane.
	CheapLaneSlots int
	// RetryAfterCap bounds the drain-rate-derived Retry-After hint.
	// 0 defaults to 5s.
	RetryAfterCap time.Duration
	// DefaultQueryTimeout is the deadline applied to a query whose
	// caller's context carries none. 0 applies no default.
	DefaultQueryTimeout time.Duration
	// MemBudgetBytes is the per-query memory budget charged at
	// materialization points. 0 means unlimited.
	MemBudgetBytes int64
	// Breaker configures the JIT circuit breaker.
	Breaker BreakerConfig
	// LoadRetries is how many times a transient table-load fault is
	// retried (0 = no retries).
	LoadRetries int
	// LoadRetryBackoff is the initial backoff between load retries,
	// doubling per attempt. 0 uses 1ms.
	LoadRetryBackoff time.Duration
}

// Defaults is the engine's out-of-the-box governance: fully permissive
// admission (no limits, no default deadline, no memory budget) so the
// seed's behaviour is unchanged, with the JIT breaker enabled (it only
// engages after repeated compile failures) and two retries for transient
// load faults.
func Defaults() Config {
	return Config{
		MaxConcurrent:       0,
		MaxQueue:            64,
		QueueWait:           time.Second,
		DefaultQueryTimeout: 0,
		MemBudgetBytes:      0,
		Breaker:             DefaultBreakerConfig(),
		LoadRetries:         2,
		LoadRetryBackoff:    5 * time.Millisecond,
	}
}

// ageTarget resolves the effective CoDel sojourn target.
func (c Config) ageTarget() time.Duration {
	if c.QueueAgeTarget > 0 {
		return c.QueueAgeTarget
	}
	if c.QueueWait > 0 {
		return c.QueueWait / 2
	}
	return 100 * time.Millisecond
}

// cheapSlots resolves the effective cheap-lane width.
func (c Config) cheapSlots() int {
	if c.CheapLaneSlots < 0 {
		return 0
	}
	if c.CheapLaneSlots == 0 {
		return 1
	}
	return c.CheapLaneSlots
}

// retryCap resolves the cap on drain-derived Retry-After hints.
func (c Config) retryCap() time.Duration {
	if c.RetryAfterCap > 0 {
		return c.RetryAfterCap
	}
	return 5 * time.Second
}

// Stats is a point-in-time snapshot of the governor's counters.
type Stats struct {
	// Admitted counts queries that passed admission control.
	Admitted int64
	// Rejected counts queries shed with ErrOverloaded (including queue
	// timeouts, aged-out and fairness-displaced waiters, and injected
	// admission faults).
	Rejected int64
	// QueueTimeouts counts rejections that happened after waiting the
	// full QueueWait in the admission queue.
	QueueTimeouts int64
	// QueueAgeSheds counts waiters shed CoDel-style because their sojourn
	// time exceeded the age target while the queue was full.
	QueueAgeSheds int64
	// FairnessSheds counts waiters displaced because their session held
	// more than its fair share of a full queue.
	FairnessSheds int64
	// DeadlineRejects counts queries rejected with ErrDeadlineExhausted
	// (early budget rejection, or budget expiry while queued).
	DeadlineRejects int64
	// CheapAdmitted counts admissions that used the cheap lane.
	CheapAdmitted int64
	// Running is the number of admitted queries currently executing.
	Running int64
	// Queued is the number of queries currently waiting for admission.
	Queued int64
	// QueueDrainPerSec is the recently observed admission throughput
	// (queries completing per second); 0 until enough samples exist.
	QueueDrainPerSec float64
	// EstServiceMs is the exponentially weighted moving average of
	// observed per-query service time, the basis for deadline-budget
	// rejection; 0 until a query completes.
	EstServiceMs float64
	// MemBudgetDenials counts queries failed with ErrMemoryBudget.
	MemBudgetDenials int64
	// LoadRetries counts transient table-load faults that were retried.
	LoadRetries int64
}

// AdmitInfo carries the scheduler-relevant facts about one query into
// admission control. The zero value is a plain anonymous heavy query.
type AdmitInfo struct {
	// Session is an opaque fairness key (server session id, client
	// address): when the queue is full, the session holding the most
	// waiters is displaced before anyone else is shed, so one heavy
	// client cannot starve the rest. Empty groups the query with all
	// other anonymous traffic.
	Session string
	// Cheap marks pre-planned, short work (prepared EXECUTE): it may use
	// the reserved cheap-lane slots when the main limit is saturated.
	Cheap bool
}

// admitOutcome is what a queued waiter eventually receives.
type admitOutcome struct {
	granted bool
	at      time.Time // grant time (service-time measurement origin)
	err     error     // set when the waiter was shed while queued
}

// waiter is one query blocked in the admission queue.
type waiter struct {
	ch      chan admitOutcome // buffered 1; receives exactly one outcome
	session string
	enq     time.Time
}

// slotKind tells release which accounting to undo.
type slotKind uint8

const (
	slotUnlimited slotKind = iota
	slotMain
	slotCheap
)

// Governor is the adaptive admission controller plus the factory for
// per-query accountants. Safe for concurrent use.
type Governor struct {
	mu        sync.Mutex
	cfg       Config
	runningN  int // main slots occupied (MaxConcurrent > 0 only)
	cheapN    int // cheap-lane slots occupied
	queue     []*waiter
	bySession map[string]int // queued waiters per fairness key

	// Observed-behaviour state feeding RetryAfter hints and deadline
	// budgets. drain is a ring of recent release timestamps.
	drain    [32]time.Time
	drainIdx int
	drainLen int
	estSvc   time.Duration // EWMA of observed service time

	admitted        atomic.Int64
	rejected        atomic.Int64
	queueTimeouts   atomic.Int64
	queueAgeSheds   atomic.Int64
	fairnessSheds   atomic.Int64
	deadlineRejects atomic.Int64
	cheapAdmitted   atomic.Int64
	running         atomic.Int64
	memDenials      atomic.Int64
	loadRetries     atomic.Int64

	now func() time.Time // test hook
}

// New creates a governor with the given configuration.
func New(cfg Config) *Governor {
	g := &Governor{now: time.Now, bySession: make(map[string]int)}
	g.SetConfig(cfg)
	return g
}

// SetConfig swaps the governance configuration. Queries already admitted
// (or already queued) finish under the limits they started with; the new
// limits apply to subsequent Admit calls.
func (g *Governor) SetConfig(cfg Config) {
	if cfg.MaxConcurrent < 0 {
		cfg.MaxConcurrent = 0
	}
	if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.cfg = cfg
}

// Config returns the current configuration.
func (g *Governor) Config() Config {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cfg
}

// drainRateLocked returns the recently observed completions per second,
// or 0 with fewer than two samples. Callers hold g.mu.
func (g *Governor) drainRateLocked() float64 {
	if g.drainLen < 2 {
		return 0
	}
	newest := g.drain[(g.drainIdx-1+len(g.drain))%len(g.drain)]
	oldest := g.drain[(g.drainIdx-g.drainLen+len(g.drain))%len(g.drain)]
	span := newest.Sub(oldest)
	if span <= 0 {
		return 0
	}
	return float64(g.drainLen-1) / span.Seconds()
}

// recordDrainLocked notes one query completion. Callers hold g.mu.
func (g *Governor) recordDrainLocked(now time.Time) {
	g.drain[g.drainIdx] = now
	g.drainIdx = (g.drainIdx + 1) % len(g.drain)
	if g.drainLen < len(g.drain) {
		g.drainLen++
	}
}

// observeServiceLocked folds one observed service time into the EWMA.
// Callers hold g.mu.
func (g *Governor) observeServiceLocked(d time.Duration) {
	if d <= 0 {
		return
	}
	if g.estSvc == 0 {
		g.estSvc = d
		return
	}
	g.estSvc = g.estSvc - g.estSvc/5 + d/5 // alpha = 0.2
}

// retryAfterLocked derives the Retry-After hint clients are given when
// shed: with observed drain events it is the time the current queue needs
// to drain at the observed rate (so clients back off proportionally to
// actual load), bounded below at 25ms and above by the configured cap;
// without samples it falls back to the configured queue wait. Callers
// hold g.mu.
func (g *Governor) retryAfterLocked() time.Duration {
	const floor = 25 * time.Millisecond
	cap := g.cfg.retryCap()
	if rate := g.drainRateLocked(); rate > 0 {
		d := time.Duration(float64(len(g.queue)+1) / rate * float64(time.Second))
		if d < floor {
			d = floor
		}
		if d > cap {
			d = cap
		}
		return d
	}
	if g.cfg.QueueWait > 0 {
		if g.cfg.QueueWait > cap {
			return cap
		}
		return g.cfg.QueueWait
	}
	return 100 * time.Millisecond
}

// predictedWaitLocked estimates how long a newcomer would wait in the
// queue at the observed drain rate (0 when unknown). Callers hold g.mu.
func (g *Governor) predictedWaitLocked() time.Duration {
	rate := g.drainRateLocked()
	if rate <= 0 || len(g.queue) == 0 {
		return 0
	}
	return time.Duration(float64(len(g.queue)) / rate * float64(time.Second))
}

// sessionIncLocked / sessionDecLocked maintain the per-session queue
// census. Callers hold g.mu.
func (g *Governor) sessionIncLocked(key string) { g.bySession[key]++ }
func (g *Governor) sessionDecLocked(key string) {
	if n := g.bySession[key] - 1; n > 0 {
		g.bySession[key] = n
	} else {
		delete(g.bySession, key)
	}
}

// removeWaiterLocked removes w from the queue, reporting whether it was
// still there (false means an outcome was already delivered). Callers
// hold g.mu.
func (g *Governor) removeWaiterLocked(w *waiter) bool {
	for i, q := range g.queue {
		if q == w {
			g.queue = append(g.queue[:i], g.queue[i+1:]...)
			g.sessionDecLocked(w.session)
			return true
		}
	}
	return false
}

// shedLocked delivers a typed overload rejection to a queued waiter and
// removes it. Callers hold g.mu and have verified membership.
func (g *Governor) shedLocked(w *waiter, cause error) {
	g.removeWaiterLocked(w)
	g.rejected.Add(1)
	w.ch <- admitOutcome{err: &OverloadedError{
		Running:    g.cfg.MaxConcurrent,
		Queued:     len(g.queue),
		RetryAfter: g.retryAfterLocked(),
		Cause:      cause,
	}}
}

// releaseMainLocked frees one main slot: the head of the queue inherits
// it directly (FIFO), or the slot count drops. Callers hold g.mu.
func (g *Governor) releaseMainLocked(now time.Time) {
	if len(g.queue) > 0 {
		w := g.queue[0]
		g.queue = g.queue[1:]
		g.sessionDecLocked(w.session)
		w.ch <- admitOutcome{granted: true, at: now}
		return
	}
	g.runningN--
}

// finish is the shared release path: it records the observed service
// time and drain event, then returns the slot to its lane.
func (g *Governor) finish(kind slotKind, grantedAt time.Time) {
	now := g.now()
	g.running.Add(-1)
	g.mu.Lock()
	defer g.mu.Unlock()
	g.observeServiceLocked(now.Sub(grantedAt))
	g.recordDrainLocked(now)
	switch kind {
	case slotMain:
		g.releaseMainLocked(now)
	case slotCheap:
		g.cheapN--
	}
}

// grant builds the idempotent release closure for one admission.
func (g *Governor) grant(kind slotKind, at time.Time) func() {
	g.admitted.Add(1)
	g.running.Add(1)
	var once sync.Once
	return func() { once.Do(func() { g.finish(kind, at) }) }
}

// Admit asks for permission to run one query with no scheduler facts
// attached (anonymous, heavy). See AdmitFor.
func (g *Governor) Admit(ctx context.Context) (release func(), err error) {
	return g.AdmitFor(ctx, AdmitInfo{})
}

// AdmitFor asks for permission to run one query. On success it returns a
// release function that MUST be called exactly once when the query
// finishes. Under saturation the query joins a bounded FIFO queue whose
// wait is charged against the query's context deadline; it may be shed
// with a typed *OverloadedError (queue full, queue-wait timeout, aged
// out, or displaced for per-session fairness) or rejected with a typed
// *DeadlineExhaustedError when its deadline budget cannot cover the
// predicted wait plus the observed service time. When ctx is cancelled
// while queued, ctx.Err() is returned.
func (g *Governor) AdmitFor(ctx context.Context, info AdmitInfo) (release func(), err error) {
	now := g.now()
	g.mu.Lock()
	cfg := g.cfg

	if ierr := faultinject.Hit(faultinject.SiteGovernAdmit); ierr != nil {
		queued := len(g.queue)
		retry := g.retryAfterLocked()
		g.mu.Unlock()
		g.rejected.Add(1)
		return nil, &OverloadedError{Running: cfg.MaxConcurrent, Queued: queued, RetryAfter: retry, Cause: ierr}
	}
	if cfg.MaxConcurrent <= 0 { // admission control disabled
		g.mu.Unlock()
		return g.grant(slotUnlimited, now), nil
	}

	// Fast path: a main slot is free.
	if g.runningN < cfg.MaxConcurrent {
		g.runningN++
		g.mu.Unlock()
		return g.grant(slotMain, now), nil
	}

	// Cheap lane: reserved headroom for pre-planned short work, so a
	// queue full of heavy scans cannot starve prepared EXECUTE (or other
	// cheap traffic) of its fast path.
	if info.Cheap && g.cheapN < cfg.cheapSlots() {
		g.cheapN++
		g.mu.Unlock()
		g.cheapAdmitted.Add(1)
		return g.grant(slotCheap, now), nil
	}

	// Deadline budget: if the time remaining cannot cover the predicted
	// queue wait plus the observed service time, reject now — the query
	// would only burn a queue slot and time out anyway. Applied on the
	// queue path only, so an unsaturated engine never second-guesses a
	// deadline it might still meet.
	if dl, ok := ctx.Deadline(); ok && g.estSvc > 0 {
		remaining := dl.Sub(now)
		needed := g.predictedWaitLocked() + g.estSvc
		if remaining < needed {
			retry := g.retryAfterLocked()
			g.mu.Unlock()
			g.deadlineRejects.Add(1)
			return nil, &DeadlineExhaustedError{
				Remaining:  remaining,
				Needed:     needed,
				RetryAfter: retry,
				Cause:      context.DeadlineExceeded,
			}
		}
	}

	// Saturated: join the bounded wait queue, or make room, or shed.
	if len(g.queue) >= cfg.MaxQueue {
		aged := faultinject.Hit(faultinject.SiteGovernQueueAge) != nil
		target := cfg.ageTarget()
		switch {
		case len(g.queue) > 0 && (aged || now.Sub(g.queue[0].enq) > target):
			// CoDel-style aging: the oldest waiter has already overstayed
			// the sojourn target — it is closer to its own timeout than the
			// newcomer, so shed it and keep the queue fresh.
			oldest := g.queue[0]
			sojourn := now.Sub(oldest.enq)
			g.queueAgeSheds.Add(1)
			g.shedLocked(oldest, fmt.Errorf("aged out of the admission queue after %v (sojourn target %v)",
				sojourn.Round(time.Millisecond), target))
		case g.fairnessVictimLocked(info.Session) != nil:
			victim := g.fairnessVictimLocked(info.Session)
			g.fairnessSheds.Add(1)
			g.shedLocked(victim, fmt.Errorf("displaced for per-session fairness (session held %d of %d queue slots)",
				g.bySession[victim.session], cfg.MaxQueue))
		default:
			queued := len(g.queue)
			retry := g.retryAfterLocked()
			g.mu.Unlock()
			g.rejected.Add(1)
			return nil, &OverloadedError{Running: cfg.MaxConcurrent, Queued: queued, RetryAfter: retry}
		}
	}

	w := &waiter{ch: make(chan admitOutcome, 1), session: info.Session, enq: now}
	g.queue = append(g.queue, w)
	g.sessionIncLocked(info.Session)
	g.mu.Unlock()

	var timeout <-chan time.Time
	if cfg.QueueWait > 0 {
		tm := time.NewTimer(cfg.QueueWait)
		defer tm.Stop()
		timeout = tm.C
	}
	select {
	case out := <-w.ch:
		if out.granted {
			return g.grant(slotMain, out.at), nil
		}
		return nil, out.err
	case <-ctx.Done():
		return nil, g.abandon(w, ctx.Err())
	case <-timeout:
		return nil, g.abandon(w, nil)
	}
}

// fairnessVictimLocked finds the newest waiter of the session hogging the
// queue — defined as holding a strict majority of a full queue — unless
// the newcomer itself belongs to that session (a hog displacing its own
// waiters is pointless; it sheds via the default path instead). Returns
// nil when the queue is shared fairly. Callers hold g.mu.
func (g *Governor) fairnessVictimLocked(newcomer string) *waiter {
	if len(g.queue) < 2 {
		return nil
	}
	hog, hogN := "", 0
	for sess, n := range g.bySession {
		if n > hogN {
			hog, hogN = sess, n
		}
	}
	if hogN <= len(g.queue)/2 || hog == newcomer {
		return nil
	}
	for i := len(g.queue) - 1; i >= 0; i-- {
		if g.queue[i].session == hog {
			return g.queue[i]
		}
	}
	return nil
}

// abandon handles a waiter leaving the queue on its own (context done or
// queue-wait timeout). The race with a concurrent grant or shed is
// resolved under g.mu: an already-granted slot is passed onward, an
// already-delivered shed error is returned as-is. ctxErr is nil for a
// queue-wait timeout.
func (g *Governor) abandon(w *waiter, ctxErr error) error {
	now := g.now()
	g.mu.Lock()
	if !g.removeWaiterLocked(w) {
		// An outcome was already delivered — consume it.
		out := <-w.ch
		if out.granted {
			// The slot arrived just as we gave up: hand it to the next
			// waiter (or free it) so nothing leaks.
			g.releaseMainLocked(now)
		} else {
			g.mu.Unlock()
			return out.err
		}
	}
	waited := now.Sub(w.enq)
	retry := g.retryAfterLocked()
	queued := len(g.queue)
	maxConc := g.cfg.MaxConcurrent
	wait := g.cfg.QueueWait
	g.mu.Unlock()

	switch {
	case ctxErr == nil:
		// Queue-wait timeout.
		g.rejected.Add(1)
		g.queueTimeouts.Add(1)
		return &OverloadedError{
			Running:    maxConc,
			Queued:     queued,
			RetryAfter: retry,
			Cause:      fmt.Errorf("waited %v in the admission queue", wait),
		}
	case errors.Is(ctxErr, context.DeadlineExceeded):
		// The deadline budget ran out while queued: the wait was charged
		// against it, and it lost.
		g.deadlineRejects.Add(1)
		return &DeadlineExhaustedError{Waited: waited, RetryAfter: retry, Cause: ctxErr}
	default:
		return ctxErr
	}
}

// NewAccountant returns a fresh per-query memory accountant, or nil when
// no memory budget is configured (callers skip context wiring then).
func (g *Governor) NewAccountant() *Accountant {
	g.mu.Lock()
	budget := g.cfg.MemBudgetBytes
	g.mu.Unlock()
	if budget <= 0 {
		return nil
	}
	return &Accountant{budget: budget, denials: &g.memDenials}
}

// NoteLoadRetries records n transient-load retries in the stats.
func (g *Governor) NoteLoadRetries(n int64) {
	if n > 0 {
		g.loadRetries.Add(n)
	}
}

// Snapshot returns the current counters.
func (g *Governor) Snapshot() Stats {
	g.mu.Lock()
	queued := len(g.queue)
	drain := g.drainRateLocked()
	est := g.estSvc
	g.mu.Unlock()
	return Stats{
		Admitted:         g.admitted.Load(),
		Rejected:         g.rejected.Load(),
		QueueTimeouts:    g.queueTimeouts.Load(),
		QueueAgeSheds:    g.queueAgeSheds.Load(),
		FairnessSheds:    g.fairnessSheds.Load(),
		DeadlineRejects:  g.deadlineRejects.Load(),
		CheapAdmitted:    g.cheapAdmitted.Load(),
		Running:          g.running.Load(),
		Queued:           int64(queued),
		QueueDrainPerSec: drain,
		EstServiceMs:     float64(est) / float64(time.Millisecond),
		MemBudgetDenials: g.memDenials.Load(),
		LoadRetries:      g.loadRetries.Load(),
	}
}

// Accountant is a per-query memory budget. Operators charge it at
// materialization points (position-list growth, sort keys, projected
// rows); the first charge that would exceed the budget returns a typed
// *MemoryBudgetError and the query fails instead of the process OOMing.
//
// A nil *Accountant is valid and never denies — operators can charge
// unconditionally.
type Accountant struct {
	budget  int64
	used    atomic.Int64
	denials *atomic.Int64 // owning governor's counter; may be nil
}

// NewAccountant creates a standalone accountant (tests and direct
// embedders; the engine uses Governor.NewAccountant). budget <= 0 means
// unlimited.
func NewAccountant(budget int64) *Accountant {
	return &Accountant{budget: budget}
}

// Charge accounts n more bytes of materialized state. It returns a
// *MemoryBudgetError when the budget would be exceeded; the charge is
// rolled back in that case so concurrent chargers see a consistent total.
func (a *Accountant) Charge(n int64) error {
	if a == nil || n <= 0 {
		return nil
	}
	used := a.used.Add(n)
	if a.budget > 0 && used > a.budget {
		a.used.Add(-n)
		if a.denials != nil {
			a.denials.Add(1)
		}
		return &MemoryBudgetError{BudgetBytes: a.budget, UsedBytes: used - n, RequestedBytes: n}
	}
	return nil
}

// Release returns n bytes to the budget (an operator freeing an
// intermediate).
func (a *Accountant) Release(n int64) {
	if a == nil || n <= 0 {
		return
	}
	a.used.Add(-n)
}

// Used reports the bytes currently accounted.
func (a *Accountant) Used() int64 {
	if a == nil {
		return 0
	}
	return a.used.Load()
}

// Budget reports the configured budget (0 = unlimited).
func (a *Accountant) Budget() int64 {
	if a == nil {
		return 0
	}
	return a.budget
}

// acctKey keys the accountant in a context.
type acctKey struct{}

// WithAccountant attaches a query's accountant to its context, from which
// operators deep in the plan retrieve it.
func WithAccountant(ctx context.Context, a *Accountant) context.Context {
	if a == nil {
		return ctx
	}
	return context.WithValue(ctx, acctKey{}, a)
}

// AccountantFrom returns the context's accountant, or nil (which charges
// as a no-op) when none is attached.
func AccountantFrom(ctx context.Context) *Accountant {
	if ctx == nil {
		return nil
	}
	a, _ := ctx.Value(acctKey{}).(*Accountant)
	return a
}

// Charge is AccountantFrom(ctx).Charge(n) — a convenience for one-shot
// charges; loops should hoist AccountantFrom out of the hot path.
func Charge(ctx context.Context, n int64) error {
	return AccountantFrom(ctx).Charge(n)
}
