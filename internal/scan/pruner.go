package scan

import (
	"fusedscan/internal/column"
	"fusedscan/internal/expr"
)

// Pruner decides whether a chunk of rows can be skipped entirely because
// the columns' zone maps prove no row in it satisfies every compare
// predicate of a conjunctive chain (NULL tests never prune: zone maps
// track value bounds, and a compare predicate already rejects NULL rows,
// so any compare conjunct proven empty empties the conjunction).
//
// A Pruner is built against the base (unsliced) chain and queried with
// absolute row ranges, so one Pruner serves every chunk of a scan. A nil
// Pruner never prunes.
type Pruner struct {
	preds []prunerPred
}

type prunerPred struct {
	zm     *column.ZoneMap
	op     expr.CmpOp
	needle uint64
}

// NewPruner builds (or fetches cached) zone maps at rowsPerZone
// granularity for every compare predicate of the chain.
func NewPruner(ch Chain, rowsPerZone int) *Pruner {
	pr := &Pruner{}
	for _, p := range ch {
		// Zone maps prove value-vs-literal bounds only: column-vs-column
		// compares and Bloom prefilters have no needle to test against.
		if p.Kind != expr.PredCompare || p.IsColCol() || p.IsBloom() {
			continue
		}
		pr.preds = append(pr.preds, prunerPred{
			zm:     p.Col.ZoneMap(rowsPerZone),
			op:     p.Op,
			needle: p.StoredBits(),
		})
	}
	return pr
}

// Prune reports whether rows [begin, end) provably contain no qualifying
// row: true when any compare predicate cannot match anywhere in the range.
func (pr *Pruner) Prune(begin, end int) bool {
	if pr == nil {
		return false
	}
	for _, p := range pr.preds {
		if !p.zm.MayMatch(begin, end, p.op, p.needle) {
			return true
		}
	}
	return false
}
