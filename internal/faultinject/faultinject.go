// Package faultinject provides deterministic, test-driven fault injection
// for the engine's failure-path tests. Production code calls Hit (or
// MaybePanic) at a named site; tests Arm a site to fail on its N-th hit,
// either by returning an injected error or by panicking — exercising the
// engine's error aggregation, graceful degradation and panic-isolation
// boundaries without fragile timing or real I/O failures.
//
// The package is safe for concurrent use, but hit counting across
// goroutines is only deterministic when the instrumented code path itself
// is deterministic (e.g. "fail the first compile" is exact; "fail the 7th
// morsel" selects a morsel, not necessarily the same one each run, when
// workers race). When nothing is armed, Hit is a single atomic load.
package faultinject

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Mode selects how an armed site fails.
type Mode uint8

const (
	// ModeError makes Hit return an *Error.
	ModeError Mode = iota
	// ModePanic makes Hit (and MaybePanic) panic with a *Panic value.
	ModePanic
	// ModeCrash makes Hit terminate the process immediately with
	// os.Exit(CrashExitCode) — no deferred functions, no buffered writes,
	// no fsyncs. Behaviourally equivalent to SIGKILL at that instruction,
	// which is exactly what the crash-recovery harness needs to prove that
	// acknowledged DDL survives an unclean death at any fault site.
	ModeCrash
)

// CrashExitCode is the exit status a ModeCrash fault dies with, so the
// crash harness can tell an injected crash apart from an ordinary failure.
const CrashExitCode = 86

func (m Mode) String() string {
	switch m {
	case ModePanic:
		return "panic"
	case ModeCrash:
		return "crash"
	}
	return "error"
}

// Well-known injection sites wired into the engine.
const (
	// SiteJITCompile fails jit.Compiler.Compile (drives the graceful
	// SISD-degradation path).
	SiteJITCompile = "jit.compile"
	// SiteKernelRun panics inside a scan kernel's Run (drives the
	// panic-isolation boundary). Only ModePanic is meaningful here: kernel
	// Run has no error return.
	SiteKernelRun = "scan.kernel"
	// SiteStorageLoad fails storage.LoadFile.
	SiteStorageLoad = "storage.load"
	// SiteParallelMorsel fails one morsel of a morsel-driven scan (drives
	// the per-morsel failure and worker panic-recovery paths).
	SiteParallelMorsel = "parallel.morsel"
	// SiteGovernAdmit fails admission control (drives the typed
	// ErrOverloaded load-shedding path without needing to saturate the
	// engine).
	SiteGovernAdmit = "govern.admit"
	// SiteJITBreaker forces the JIT circuit breaker to reject a compile
	// (drives the breaker-open degradation path deterministically,
	// without accumulating real consecutive failures).
	SiteJITBreaker = "jit.breaker"
	// SiteStorageChecksum fails block-checksum verification in
	// storage.ReadTable (drives the corruption-detection path without
	// crafting a corrupt file).
	SiteStorageChecksum = "storage.checksum"
	// SiteWALAppend fails (or crashes) a DDL write-ahead-log append before
	// the record reaches the disk — the DDL must then never be
	// acknowledged, and recovery must not surface it.
	SiteWALAppend = "storage.wal.append"
	// SiteSnapshotRename fails (or crashes) an atomic table-snapshot
	// publish between writing the temp file and renaming it into place —
	// the previous snapshot, if any, must survive intact.
	SiteSnapshotRename = "storage.snapshot.rename"
	// SiteScrub forces the background scrubber's checksum verification to
	// report corruption (drives the quarantine path without flipping real
	// bytes on disk).
	SiteScrub = "storage.scrub"
	// SiteWriteColumn fails (or crashes) mid-way through serializing a
	// table — after some columns are out but before the write completes —
	// leaving a torn file for the atomic-save machinery to contain.
	SiteWriteColumn = "storage.write.column"
	// SiteGovernQueueAge forces the CoDel-style queue-aging path in
	// admission control: with the site armed, an arrival at a full queue
	// sheds the oldest waiter as if its sojourn time had exceeded the age
	// target, without the test actually having to let waiters go stale.
	SiteGovernQueueAge = "govern.queue.age"
	// SiteServerWriteStall simulates a stalled ndjson reader: the armed
	// hit makes a streaming batch write block until its write deadline
	// expires (drives the slow-client disconnect path — slot and memory
	// budget release — without a real dead TCP peer).
	SiteServerWriteStall = "server.write.stall"
	// SiteClientConnReset fails one remote-client HTTP attempt as if the
	// connection had been reset mid-flight (drives the client's
	// backoff-and-retry path deterministically).
	SiteClientConnReset = "client.conn.reset"
	// SiteJoinBuildAlloc fails the hash join's build phase while it is
	// charging and allocating hash-table memory (drives the typed
	// mid-build error path: the query fails cleanly, the pipeline closes,
	// no partial hash table leaks).
	SiteJoinBuildAlloc = "join.build.alloc"
	// SiteJoinProbeBatch fails one probe-side batch of a hash join (drives
	// the mid-probe error path: a typed error after results have already
	// started flowing, never a panic).
	SiteJoinProbeBatch = "join.probe.batch"
	// SiteIndexBuildAlloc fails a secondary-index build while it is
	// charging and allocating the sorted (key, position) entry arrays
	// (drives the typed over-budget path: CREATE INDEX fails cleanly, no
	// partial index is installed or persisted).
	SiteIndexBuildAlloc = "index.build.alloc"
	// SiteIndexProbe fails one index probe during an IndexScan (drives the
	// mid-query error path: a typed error out of the access path, never a
	// panic, and the operator closes cleanly).
	SiteIndexProbe = "index.probe"
)

// AllSites lists every Site* constant above. The load harness uses it to
// validate -fault specs, and a go/ast-based test asserts the list stays
// complete as sites are added.
var AllSites = []string{
	SiteJITCompile,
	SiteKernelRun,
	SiteStorageLoad,
	SiteParallelMorsel,
	SiteGovernAdmit,
	SiteJITBreaker,
	SiteStorageChecksum,
	SiteWALAppend,
	SiteSnapshotRename,
	SiteScrub,
	SiteWriteColumn,
	SiteGovernQueueAge,
	SiteServerWriteStall,
	SiteClientConnReset,
	SiteJoinBuildAlloc,
	SiteJoinProbeBatch,
	SiteIndexBuildAlloc,
	SiteIndexProbe,
}

// Error is the injected failure returned by Hit in ModeError.
type Error struct {
	Site string
	N    int64 // which hit triggered (1-based)
}

func (e *Error) Error() string {
	return fmt.Sprintf("faultinject: injected error at %q (hit %d)", e.Site, e.N)
}

// Panic is the value an armed ModePanic site panics with.
type Panic struct {
	Site string
	N    int64
}

func (p *Panic) String() string {
	return fmt.Sprintf("faultinject: injected panic at %q (hit %d)", p.Site, p.N)
}

// Error makes *Panic an error, so recovery boundaries that convert panics
// into errors (parallel workers, the engine's query stages) can wrap the
// injected value with %w and keep the failure typed for errors.As.
func (p *Panic) Error() string { return p.String() }

type fault struct {
	n    int64 // trigger on the n-th hit (1-based)
	mode Mode
	hits int64
}

var (
	// anyArmed short-circuits Hit when no site is armed, so instrumented
	// hot paths pay one atomic load in production.
	anyArmed atomic.Bool

	mu     sync.Mutex
	faults = map[string]*fault{}
)

// Arm schedules site to fail on its n-th hit (1-based; n <= 1 means the
// next hit). Re-arming a site resets its hit counter.
func Arm(site string, n int, mode Mode) {
	if n < 1 {
		n = 1
	}
	mu.Lock()
	defer mu.Unlock()
	faults[site] = &fault{n: int64(n), mode: mode}
	anyArmed.Store(true)
}

// Disarm removes any fault scheduled for site.
func Disarm(site string) {
	mu.Lock()
	defer mu.Unlock()
	delete(faults, site)
	anyArmed.Store(len(faults) > 0)
}

// Reset disarms every site.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	faults = map[string]*fault{}
	anyArmed.Store(false)
}

// Hits reports how many times site has been hit since it was armed.
func Hits(site string) int64 {
	mu.Lock()
	defer mu.Unlock()
	if f, ok := faults[site]; ok {
		return f.hits
	}
	return 0
}

// Hit records one pass through site. When the site is armed and this is
// the scheduled hit, it fails: ModeError returns an *Error, ModePanic
// panics with a *Panic. Otherwise it returns nil.
func Hit(site string) error {
	if !anyArmed.Load() {
		return nil
	}
	mu.Lock()
	defer mu.Unlock()
	f, ok := faults[site]
	if !ok {
		return nil
	}
	f.hits++
	if f.hits != f.n {
		return nil
	}
	switch f.mode {
	case ModePanic:
		panic(&Panic{Site: site, N: f.hits})
	case ModeCrash:
		os.Exit(CrashExitCode)
	}
	return &Error{Site: site, N: f.hits}
}

// ArmSpec arms one site from a "site:n[:mode]" spec string, e.g.
// "storage.wal.append:1:crash". n is the 1-based hit to trigger on; mode
// is "error" (default), "panic" or "crash". The server's -fault flag and
// the crash-recovery harness use this to arm faults in a child process.
func ArmSpec(spec string) error {
	parts := strings.Split(spec, ":")
	if len(parts) < 2 || len(parts) > 3 || parts[0] == "" {
		return fmt.Errorf("faultinject: bad spec %q (want site:n[:mode])", spec)
	}
	n, err := strconv.Atoi(parts[1])
	if err != nil || n < 1 {
		return fmt.Errorf("faultinject: bad hit count in spec %q", spec)
	}
	mode := ModeError
	if len(parts) == 3 {
		switch parts[2] {
		case "error":
			mode = ModeError
		case "panic":
			mode = ModePanic
		case "crash":
			mode = ModeCrash
		default:
			return fmt.Errorf("faultinject: bad mode %q in spec %q (want error, panic or crash)", parts[2], spec)
		}
	}
	known := false
	for _, s := range AllSites {
		if s == parts[0] {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("faultinject: unknown site %q (known: %s)", parts[0], strings.Join(AllSites, ", "))
	}
	Arm(parts[0], n, mode)
	return nil
}

// MaybePanic is Hit for sites with no error return (e.g. inside a scan
// kernel): it triggers only ModePanic faults and ignores ModeError ones.
func MaybePanic(site string) {
	if !anyArmed.Load() {
		return
	}
	mu.Lock()
	defer mu.Unlock()
	f, ok := faults[site]
	if !ok || f.mode != ModePanic {
		return
	}
	f.hits++
	if f.hits == f.n {
		panic(&Panic{Site: site, N: f.hits})
	}
}
