// Parallel: morsel-driven multi-core scan scaling (an extension beyond the
// paper's single-core evaluation). Two regimes fall out of the model:
//
//   - the branchy SISD scan is compute-bound (misprediction rollbacks), so
//     it scales nearly linearly with cores;
//   - the fused scan at low selectivity is memory-bound at ~12 GB/s per
//     core, so its scaling saturates once the socket's ~80 GB/s of DRAM
//     bandwidth is consumed (~7 cores).
//
// This mirrors the classic observation that SIMD-optimized scans move the
// bottleneck to memory — after which more cores stop helping.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"fusedscan"
)

func main() {
	const rows = 4_000_000
	rng := rand.New(rand.NewSource(9))
	a := make([]int32, rows)
	b := make([]int32, rows)
	for i := 0; i < rows; i++ {
		if rng.Float64() < 0.5 {
			a[i] = 5
		} else {
			a[i] = rng.Int31n(100) + 10
		}
		if rng.Float64() < 0.5 {
			b[i] = 2
		} else {
			b[i] = rng.Int31n(100) + 10
		}
	}

	eng := fusedscan.NewEngine()
	tb := eng.CreateTable("tbl")
	tb.Int32("a", a)
	tb.Int32("b", b)
	if err := tb.Finish(); err != nil {
		log.Fatal(err)
	}

	run := func(label string, cfg fusedscan.Config) {
		fmt.Printf("%s (4M rows, 50%% selectivity per predicate)\n", label)
		fmt.Printf("%-8s %14s %14s %10s\n", "cores", "runtime", "memory", "speedup")
		var base float64
		for _, cores := range []int{1, 2, 4, 8, 16} {
			cfg.Cores, cfg.MorselRows = cores, 250_000
			if err := eng.SetConfig(cfg); err != nil {
				log.Fatal(err)
			}
			res, err := eng.NewScan("tbl").
				Where("a", "=", "5").
				Where("b", "=", "2").
				Run()
			if err != nil {
				log.Fatal(err)
			}
			rep := res.Report
			if cores == 1 {
				base = rep.RuntimeMs
			}
			memMs := rep.MemCycles / rep.RuntimeCycles * rep.RuntimeMs
			fmt.Printf("%-8d %11.3f ms %11.3f ms %9.2fx\n",
				cores, rep.RuntimeMs, memMs, base/rep.RuntimeMs)
		}
		fmt.Println()
	}

	run("SISD scalar scan — compute-bound, scales with cores",
		fusedscan.Config{Simulate: true, UseFused: false, RegisterWidth: 512})
	run("Fused Table Scan — memory-bound, saturates the socket",
		fusedscan.DefaultConfig())
}
