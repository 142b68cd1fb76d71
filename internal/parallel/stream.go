package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"

	"fusedscan/internal/faultinject"
	"fusedscan/internal/mach"
	"fusedscan/internal/scan"
)

// EOS is the sentinel error Stream.Next returns when every morsel has been
// delivered. Like io.EOF it signals normal termination, not failure.
var EOS = errors.New("parallel: end of stream")

// Morsel is one morsel's scan outcome, delivered by Stream.Next in morsel
// (i.e. table) order. Res.Positions are relative to Begin.
type Morsel struct {
	// Begin is the table row id of the morsel's first row.
	Begin int
	// Rows is the number of table rows the morsel covers.
	Rows int
	// Res is the kernel result over the morsel's rows.
	Res scan.Result
}

// Options configure a Stream.
type Options struct {
	// Cores is the number of workers. With Cores <= 1 every morsel runs
	// inline in Next on CPU, in the consumer's goroutine.
	Cores int
	// MorselRows is the morsel size, and the zone-map granularity that
	// pruning consults.
	MorselRows int
	// CPU is the caller's machine model, charged by inline morsels. It is
	// nil on the native path: a nil CPU is the no-op cost sink.
	CPU *mach.CPU
	// Params, when non-nil, gives every parallel worker its own simulated
	// mach.CPU built from it. Nil (the native path) runs worker kernels
	// with a nil CPU and builds no machine model.
	Params *mach.Params
	// Positions asks the kernels for position lists; false runs them in
	// count-only mode.
	Positions bool
	// EstSel, when > 0, is the optimizer's selectivity estimate for the
	// chain, used to pre-size each morsel's position list.
	EstSel float64
}

// span is one morsel's row range.
type span struct {
	begin, end int
}

// streamItem is the in-band worker→consumer message: a morsel result or
// its failure.
type streamItem struct {
	seq   int
	res   scan.Result
	bytes int64
	err   error
}

// Stream is the morsel scan driver. It slices the chain into morsels,
// drops those the zone maps prove empty, and builds and runs a kernel per
// remaining morsel, handing the results to the consumer one morsel at a
// time in table order. The batch pipeline's scan leaf consumes it; with
// several cores, production is parallel underneath while downstream
// operators see the exact stream a sequential scan would produce.
//
// Pruned morsels are filtered out before the round-robin dispatch, so the
// simulated load per core is deterministic.
//
// A morsel whose kernel fails to build (or panics inside a worker, which
// becomes a *PanicError) poisons only that morsel: Next returns its error
// at that position, and the pipeline treats it as fatal and Closes. A
// panic in an inline morsel propagates to the caller, whose own recovery
// records the stack.
//
// Close cancels morsels not yet started — the LIMIT short-circuit path —
// and waits for in-flight ones, so no worker outlives the consumer.
type Stream struct {
	ctx   context.Context
	chain scan.Chain
	build func(scan.Chain) (scan.Kernel, error)
	opts  Options

	// morsels are the unpruned morsels in table order; next indexes the
	// one Next delivers next.
	morsels []span
	next    int
	pruned  int
	bytes   int64

	// Parallel mode only (items == nil runs inline).
	cancel     context.CancelFunc
	items      chan streamItem
	wg         sync.WaitGroup
	cpus       []*mach.CPU
	pending    map[int]streamItem
	finishOnce sync.Once
	perCore    []mach.Counters
}

// NewStream validates the scan, prunes its morsels and, with more than
// one core, launches the workers. build constructs a kernel per morsel
// (e.g. a JIT compile hitting the operator cache, or scan.NewSISD).
func NewStream(ctx context.Context, ch scan.Chain, build func(scan.Chain) (scan.Kernel, error), o Options) (*Stream, error) {
	if err := ch.Validate(); err != nil {
		return nil, err
	}
	if o.MorselRows < 1 {
		return nil, fmt.Errorf("parallel: morselRows must be >= 1, got %d", o.MorselRows)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	s := &Stream{ctx: ctx, chain: ch, build: build, opts: o}
	// Zone maps are built lazily per column and cached, so the first scan
	// of a column pays one stats pass and later scans prune for free.
	pruner := scan.NewPruner(ch, o.MorselRows)
	n := ch.Rows()
	for begin := 0; begin < n; begin += o.MorselRows {
		end := min(begin+o.MorselRows, n)
		if pruner.Prune(begin, end) {
			s.pruned++
			continue
		}
		s.morsels = append(s.morsels, span{begin: begin, end: end})
	}
	if o.Cores <= 1 {
		return s, nil
	}

	wctx, cancel := context.WithCancel(ctx)
	s.cancel = cancel
	// The channel is bounded to a couple of morsels per core: workers
	// block when the consumer lags (backpressure), which keeps in-flight
	// results O(cores), not O(table) — and makes Close actually stop
	// upstream work instead of letting workers race to the end of the
	// table.
	s.items = make(chan streamItem, 2*o.Cores)
	s.pending = make(map[int]streamItem)
	s.cpus = make([]*mach.CPU, o.Cores)
	// Morsels are assigned round-robin so the *simulated* load is balanced
	// deterministically across cores (a wall-clock work queue would balance
	// the emulator's time, not the modelled machine's).
	for c := 0; c < o.Cores; c++ {
		if o.Params != nil {
			s.cpus[c] = mach.New(*o.Params)
		}
		s.wg.Add(1)
		go func(worker int) {
			defer s.wg.Done()
			for seq := worker; seq < len(s.morsels); seq += o.Cores {
				if wctx.Err() != nil {
					return
				}
				item := s.runRecovered(s.cpus[worker], seq)
				select {
				case s.items <- item:
				case <-wctx.Done():
					return
				}
			}
		}(c)
	}
	go func() {
		s.wg.Wait()
		close(s.items)
	}()
	return s, nil
}

// run builds and runs the kernel of morsel seq on cpu.
func (s *Stream) run(cpu *mach.CPU, seq int) streamItem {
	m := s.morsels[seq]
	if err := faultinject.Hit(faultinject.SiteParallelMorsel); err != nil {
		return streamItem{seq: seq, err: fmt.Errorf("parallel: morsel [%d, %d): %w", m.begin, m.end, err)}
	}
	sub := s.chain.Slice(m.begin, m.end)
	kern, err := s.build(sub)
	if err != nil {
		return streamItem{seq: seq, err: fmt.Errorf("parallel: morsel [%d, %d): %w", m.begin, m.end, err)}
	}
	if s.opts.Positions {
		scan.HintSize(kern, s.opts.EstSel, m.end-m.begin)
	}
	return streamItem{seq: seq, res: kern.Run(cpu, s.opts.Positions), bytes: sub.ScanBytes()}
}

// PanicError is the failure of a morsel whose worker panicked: the panic
// value and the worker's stack, carried to the consumer as that morsel's
// error.
type PanicError struct {
	Begin, End int // the morsel's row range
	Value      any
	Stack      string
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: morsel [%d, %d): panic: %v", e.Begin, e.End, e.Value)
}

// Unwrap exposes an error-typed panic value (e.g. *faultinject.Panic) to
// errors.Is / errors.As.
func (e *PanicError) Unwrap() error {
	err, _ := e.Value.(error)
	return err
}

// runRecovered is run for worker goroutines, which sit outside any
// caller's recover: a panic while building or running the kernel becomes
// that morsel's error instead of killing the process.
func (s *Stream) runRecovered(cpu *mach.CPU, seq int) (item streamItem) {
	defer func() {
		if r := recover(); r != nil {
			m := s.morsels[seq]
			item = streamItem{seq: seq, err: &PanicError{Begin: m.begin, End: m.end, Value: r, Stack: string(debug.Stack())}}
		}
	}()
	return s.run(cpu, seq)
}

// Next returns the next unpruned morsel in table order, EOS when the scan
// is complete, the context's error when it was cancelled, or the morsel's
// own failure.
func (s *Stream) Next() (Morsel, error) {
	var item streamItem
	if s.items == nil {
		if s.next >= len(s.morsels) {
			return Morsel{}, EOS
		}
		if err := s.ctx.Err(); err != nil {
			return Morsel{}, err
		}
		item = s.run(s.opts.CPU, s.next)
	} else {
		for {
			var ok bool
			if item, ok = s.pending[s.next]; ok {
				delete(s.pending, s.next)
				break
			}
			if item, ok = <-s.items; !ok {
				if err := s.ctx.Err(); err != nil {
					return Morsel{}, err
				}
				return Morsel{}, EOS
			}
			s.pending[item.seq] = item
		}
	}
	s.next++
	if item.err != nil {
		return Morsel{}, item.err
	}
	s.bytes += item.bytes
	m := s.morsels[item.seq]
	return Morsel{Begin: m.begin, Rows: m.end - m.begin, Res: item.res}, nil
}

// Pruned is the number of morsels the zone maps proved empty.
func (s *Stream) Pruned() int { return s.pruned }

// BytesScanned totals the stored value bytes of the delivered morsels'
// predicate columns (packed word spans, plain lanes) — what the scan
// addressed after zone-map skipping.
func (s *Stream) BytesScanned() int64 { return s.bytes }

// Close cancels morsels not yet started and waits for in-flight ones. It
// is safe to call at any point, including before EOS.
func (s *Stream) Close() {
	if s.items != nil {
		s.cancel()
		s.wg.Wait()
	}
}

// PerCore waits for the workers and returns each one's simulated
// counters; nil when the morsels ran inline or without a machine model.
// Call after EOS or Close.
func (s *Stream) PerCore() []mach.Counters {
	if s.items == nil || s.opts.Params == nil {
		return nil
	}
	s.finishOnce.Do(func() {
		s.wg.Wait()
		for _, cpu := range s.cpus {
			s.perCore = append(s.perCore, cpu.Finish())
		}
	})
	return s.perCore
}
