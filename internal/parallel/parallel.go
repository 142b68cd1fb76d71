// Package parallel is the engine's one morsel scan driver, in the spirit
// of the morsel footnote the paper carries over from Hyrise ("[the table]
// can, however, be horizontally partitioned into chunks or morsels"). The
// paper's evaluation is single-core; multi-core execution is an
// explicitly-labelled extension.
//
// Execution model: the table is split into fixed-size morsels, zone maps
// prune the morsels that provably hold no match, and the survivors run the
// scan kernel over zero-copy column views. With one core every morsel runs
// inline on the caller's mach.CPU; with more, worker goroutines — each
// with its own mach.CPU (own caches, own branch predictor) when the
// machine model is on — take the morsels round-robin. Results are
// delivered in morsel order, so they are identical to a sequential scan.
//
// Failure model: a morsel whose kernel fails to build (or panics inside a
// worker) poisons only that morsel, not the process — workers recover
// panics into that morsel's error. Context cancellation is checked between
// morsels, so a cancelled scan stops within one morsel's worth of work per
// core.
//
// Performance model: per-core compute is independent, but all cores share
// the socket's memory controllers. The combined report takes
//
//	runtime = max( max over cores of compute cycles,
//	               total DRAM lines at min(N x per-core BW, socket BW) )
//
// which produces the expected behaviour: CPU-bound scans scale linearly
// with cores, bandwidth-bound scans saturate at SocketBandwidthGBs /
// StreamBandwidthGBs cores (~6.7 with the default calibration).
package parallel

import "fusedscan/internal/mach"

// CombinedModel is the multi-core performance model over per-core
// counters (see the package comment for the formula).
type CombinedModel struct {
	RuntimeMs    float64
	ComputeMs    float64
	MemMs        float64
	AggregateGBs float64
}

// Combine applies the shared-socket bandwidth model to per-core counters:
// runtime is the slower of the slowest core's compute time and the total
// DRAM traffic at min(N x per-core stream bandwidth, socket bandwidth).
func Combine(params mach.Params, perCore []mach.Counters) CombinedModel {
	var maxComputeCy float64
	var totalLines uint64
	for _, c := range perCore {
		compute := c.ComputeCycles + c.ExposedLatencyCy
		if compute > maxComputeCy {
			maxComputeCy = compute
		}
		totalLines += c.DRAMLines()
	}
	aggBW := params.StreamBandwidthGBs * float64(len(perCore))
	if aggBW > params.SocketBandwidthGBs {
		aggBW = params.SocketBandwidthGBs
	}
	bytesTotal := float64(totalLines) * float64(params.LineBytes)
	memCycles := bytesTotal / (aggBW / params.ClockGHz)
	runtimeCycles := maxComputeCy
	if memCycles > runtimeCycles {
		runtimeCycles = memCycles
	}
	m := CombinedModel{
		ComputeMs: maxComputeCy / (params.ClockGHz * 1e6),
		MemMs:     memCycles / (params.ClockGHz * 1e6),
		RuntimeMs: runtimeCycles / (params.ClockGHz * 1e6),
	}
	if runtimeCycles > 0 {
		m.AggregateGBs = bytesTotal / runtimeCycles * params.ClockGHz
	}
	return m
}
