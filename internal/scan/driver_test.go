package scan_test

import (
	"context"

	"fusedscan/internal/mach"
	"fusedscan/internal/parallel"
	"fusedscan/internal/scan"
)

func init() { scan.MorselDriver = runMorsels }

// runMorsels drains a single-core parallel.Stream into one result.
func runMorsels(build func(scan.Chain) (scan.Kernel, error), ch scan.Chain, morselRows int, cpu *mach.CPU, wantPositions bool) (scan.MorselRun, error) {
	s, err := parallel.NewStream(context.Background(), ch, build,
		parallel.Options{MorselRows: morselRows, CPU: cpu, Positions: wantPositions})
	if err != nil {
		return scan.MorselRun{}, err
	}
	defer s.Close()
	var out scan.MorselRun
	for {
		m, err := s.Next()
		if err == parallel.EOS {
			break
		}
		if err != nil {
			return scan.MorselRun{}, err
		}
		out.Morsels++
		out.Count += m.Res.Count
		for _, p := range m.Res.Positions {
			out.Positions = append(out.Positions, p+uint32(m.Begin))
		}
	}
	out.Pruned = s.Pruned()
	out.Morsels += out.Pruned
	return out, nil
}
