package scan

import "fusedscan/internal/mach"

// MorselRun is the outcome of runMorsels: the merged result with positions
// rebased to table row ids, plus the morsel and zone-map prune counts.
type MorselRun struct {
	Result
	Morsels int
	Pruned  int
}

// MorselDriver runs ch morsel by morsel through the engine's scan driver
// (internal/parallel) on one core, charging cpu. This package cannot
// import the driver, which imports it; driver_test.go, an external test
// file of the same test binary, installs it at init.
var MorselDriver func(build func(Chain) (Kernel, error), ch Chain, morselRows int, cpu *mach.CPU, wantPositions bool) (MorselRun, error)

// runMorsels is MorselDriver for the package's own tests.
func runMorsels(build func(Chain) (Kernel, error), ch Chain, morselRows int, cpu *mach.CPU, wantPositions bool) (MorselRun, error) {
	return MorselDriver(build, ch, morselRows, cpu, wantPositions)
}
