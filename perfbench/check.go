package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"
	"time"

	"fusedscan"
	"fusedscan/internal/sqlparse"
)

// errWrong marks an answer that differs from the one the benchmark
// computed from the generated arrays. The engine is never its own oracle.
var errWrong = errors.New("wrong answer")

func wrongf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{errWrong}, args...)...)
}

func checkInt(what string, got string, want int64) error {
	if got != strconv.FormatInt(want, 10) {
		return wrongf("%s = %q, want %d", what, got, want)
	}
	return nil
}

func checkCount(got, want int64) error {
	if got != want {
		return wrongf("count %d, want %d", got, want)
	}
	return nil
}

// checkRows compares result rows with expected ones, in order.
func checkRows(got, want [][]string) error {
	if len(got) != len(want) {
		return wrongf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return wrongf("row %d has %d columns, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				return wrongf("row %d column %d = %q, want %q", i, j, got[i][j], want[i][j])
			}
		}
	}
	return nil
}

// rowSum is an order-independent checksum of rendered rows: the sum of
// each row's FNV-1a hash.
type rowSum struct {
	rows int64
	sum  uint64
}

func (r *rowSum) add(row ...string) {
	h := fnv.New64a()
	for _, v := range row {
		h.Write([]byte(v))
		h.Write([]byte{0})
	}
	r.rows++
	r.sum += h.Sum64()
}

func itoa(v int64) string { return strconv.FormatInt(v, 10) }

// query runs one ad-hoc statement in process. On a traced op it first
// times the parser and the planner through their own entry points, then
// records the engine call with the engine's operators laid out inside it.
func query(eng *fusedscan.Engine, sql string, ot *opTrace) (*fusedscan.Result, time.Duration, error) {
	return queryWith(eng, sql, fusedscan.QueryOptions{}, ot)
}

// queryStream is query with the rows streamed to a callback that drops
// them, as the server streams them to the wire.
func queryStream(eng *fusedscan.Engine, sql string, ot *opTrace) (*fusedscan.Result, time.Duration, error) {
	return queryWith(eng, sql, fusedscan.QueryOptions{Stream: func([]string, [][]string) error { return nil }}, ot)
}

func queryWith(eng *fusedscan.Engine, sql string, qo fusedscan.QueryOptions, ot *opTrace) (*fusedscan.Result, time.Duration, error) {
	if ot != nil {
		p := ot.start("sqlparse.parse", 0)
		_, err := sqlparse.ParseStatement(sql)
		ot.end(p)
		if err != nil {
			return nil, 0, err
		}
		e := ot.start("lqp.explain", 0)
		_, err = eng.ExplainQuery(sql)
		ot.end(e)
		if err != nil {
			return nil, 0, err
		}
	}
	q := ot.start("engine.query", 0)
	start := time.Now()
	res, err := eng.QueryWith(ctx, sql, qo)
	lat := time.Since(start)
	ot.end(q)
	if err == nil {
		ot.addOperators(res.Operators, q)
	}
	return res, lat, err
}
