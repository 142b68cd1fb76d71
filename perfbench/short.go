package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math/rand/v2"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"fusedscan"
	"fusedscan/internal/client"
	"fusedscan/internal/expr"
	"fusedscan/internal/server"
)

// The short workload is fixed per-query cost over HTTP: point lookups
// (prepared and ad hoc) on an indexed 1M-row table, aggregates on a
// 1K-row table, a small share of ~10K-row streamed results and of durable
// index DDL. Its tables (about 12 MiB plus a 12 MiB index) fit in the
// LLC; the scan kernels are almost idle.
const (
	shortClients = 2 // closed-loop sessions
	bigRows      = 1 << 20
	smallRows    = 1000
	sideRows     = 1000
	lookupSQL    = "SELECT v FROM big WHERE u = $1"
)

var (
	shortKinds = []string{"execute_lookup", "adhoc_lookup", "adhoc_agg", "stream", "ddl"}
	// shortWeights is the mix, per 200 ops: DDL is 1% and streams 2%, so
	// they shape the tail and the write path without dominating time.
	shortWeights = []int{100, 50, 44, 4, 2}
)

type shortWant struct {
	vAt      []int32     // v of the row whose u is the index
	smallSum [101]int64  // smallSum[t] = SUM(y) over x < t
	stream   [100]rowSum // rows (u, v) with w = t
}

type shortData struct {
	u, v, w, x, y, c0, c1 []int32
	want                  shortWant
}

func genShort(seed uint64) *shortData {
	rng := rand.New(rand.NewPCG(seed, 0x5407))
	s := &shortData{u: make([]int32, bigRows), v: make([]int32, bigRows), w: make([]int32, bigRows)}
	s.want.vAt = make([]int32, bigRows)
	for i, u := range rng.Perm(bigRows) {
		s.u[i], s.v[i], s.w[i] = int32(u), rng.Int32N(1_000_000_000), rng.Int32N(100)
		s.want.vAt[u] = s.v[i]
		s.want.stream[s.w[i]].add(itoa(int64(u)), itoa(int64(s.v[i])))
	}
	s.x, s.y = make([]int32, smallRows), make([]int32, smallRows)
	for i := range s.x {
		s.x[i], s.y[i] = rng.Int32N(100), rng.Int32N(1000)
		s.want.smallSum[s.x[i]+1] += int64(s.y[i])
	}
	for t := 1; t <= 100; t++ {
		s.want.smallSum[t] += s.want.smallSum[t-1]
	}
	s.c0, s.c1 = make([]int32, sideRows), make([]int32, sideRows)
	for i := range s.c0 {
		s.c0[i], s.c1[i] = rng.Int32N(1000), rng.Int32N(1000)
	}
	return s
}

type shortInst struct {
	dir   string
	eng   *fusedscan.Engine
	srv   *server.Server
	serve chan error // Serve's return, once it has stopped
	hc    *http.Client
	cl    *client.Client
	want  shortWant
	prep  *fusedscan.Prepared // in-process twin of the sessions' statement, for traced ops

	sessions []string
	stmts    []string
	indexed  []bool // per client: whether its side column is indexed now

	ddlMu  sync.Mutex // serializes traced DDL so WAL deltas are attributable
	closed bool
}

func setupShort(env *setupEnv) (instance, error) {
	data := genShort(env.seed)
	eng, err := fusedscan.Open(env.dir)
	if err != nil {
		return nil, err
	}
	s := &shortInst{dir: env.dir, eng: eng, want: data.want, serve: make(chan error, 1)}
	if err := s.build(data); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *shortInst) build(data *shortData) error {
	eng := s.eng
	if err := eng.SetConfig(nativeConfig()); err != nil {
		return err
	}
	if err := eng.CreateTable("big").Int32("u", data.u).Int32("v", data.v).Int32("w", data.w).Index("u").Finish(); err != nil {
		return err
	}
	if err := eng.CreateTable("small").Int32("x", data.x).Int32("y", data.y).Finish(); err != nil {
		return err
	}
	if err := eng.CreateTable("side").Int32("c0", data.c0).Int32("c1", data.c1).Finish(); err != nil {
		return err
	}
	prep, err := eng.Prepare(lookupSQL)
	if err != nil {
		return err
	}
	s.prep = prep

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.srv = server.New(eng, server.Options{})
	go func() { s.serve <- s.srv.Serve(ln) }()
	clients := shortClients
	s.hc = &http.Client{Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}}
	s.cl = client.New(client.Options{BaseURL: "http://" + ln.Addr().String(), HTTPClient: s.hc, Retries: -1, BreakerThreshold: -1})
	for c := 0; c < clients; c++ {
		sess, err := s.cl.Session(ctx, server.SessionRequest{})
		if err != nil {
			return err
		}
		p, err := s.cl.Prepare(ctx, server.PrepareRequest{SQL: lookupSQL, Session: sess.Session})
		if err != nil {
			return err
		}
		s.sessions = append(s.sessions, sess.Session)
		s.stmts = append(s.stmts, p.Stmt)
		s.indexed = append(s.indexed, false)
	}
	return nil
}

func (s *shortInst) kinds() []string { return shortKinds }

func (s *shortInst) pick(c *clientState) int {
	r := c.rng.IntN(200)
	for k, w := range shortWeights {
		if r < w {
			return k
		}
		r -= w
	}
	return 0
}

func (s *shortInst) do(c *clientState, kind int, ot *opTrace) (time.Duration, error) {
	sess := s.sessions[c.id]
	if ot != nil {
		ot.queued = s.eng.Stats().Queued
	}
	switch shortKinds[kind] {
	case "execute_lookup":
		key := c.rng.IntN(bigRows)
		arg := []string{itoa(int64(key))}
		call := ot.start("client.call", 0)
		start := time.Now()
		resp, err := s.cl.Execute(ctx, server.ExecuteRequest{Session: sess, Stmt: s.stmts[c.id], Args: arg})
		lat := time.Since(start)
		ot.end(call)
		if err != nil {
			return lat, err
		}
		if ot != nil {
			ot.serverNs = resp.ElapsedMicros * 1e3
			q := ot.start("engine.query", 0)
			res, err := s.prep.ExecuteWith(ctx, fusedscan.QueryOptions{Args: arg})
			ot.end(q)
			if err != nil {
				return lat, err
			}
			ot.addOperators(res.Operators, q)
			s.probe(ot, key)
		}
		return lat, checkRows(resp.Rows, [][]string{{itoa(int64(s.want.vAt[key]))}})

	case "adhoc_lookup":
		key := c.rng.IntN(bigRows)
		sql := fmt.Sprintf("SELECT v FROM big WHERE u = %d", key)
		call := ot.start("client.call", 0)
		start := time.Now()
		resp, err := s.cl.Query(ctx, server.QueryRequest{SQL: sql, Session: sess})
		lat := time.Since(start)
		ot.end(call)
		if err != nil {
			return lat, err
		}
		if ot != nil {
			ot.serverNs = resp.ElapsedMicros * 1e3
			if _, _, err := query(s.eng, sql, ot); err != nil {
				return lat, err
			}
			s.probe(ot, key)
		}
		return lat, checkRows(resp.Rows, [][]string{{itoa(int64(s.want.vAt[key]))}})

	case "adhoc_agg":
		t := 10 + c.rng.IntN(91)
		sql := fmt.Sprintf("SELECT SUM(y) FROM small WHERE x < %d", t)
		call := ot.start("client.call", 0)
		start := time.Now()
		resp, err := s.cl.Query(ctx, server.QueryRequest{SQL: sql, Session: sess})
		lat := time.Since(start)
		ot.end(call)
		if err != nil {
			return lat, err
		}
		if ot != nil {
			ot.serverNs = resp.ElapsedMicros * 1e3
			if _, _, err := query(s.eng, sql, ot); err != nil {
				return lat, err
			}
		}
		return lat, checkInt("SUM(y)", resp.Sum, s.want.smallSum[t])

	case "stream":
		t := c.rng.IntN(100)
		sql := fmt.Sprintf("SELECT u, v FROM big WHERE w = %d", t)
		var rows [][]string
		call := ot.start("client.call", 0)
		start := time.Now()
		sr, err := s.cl.Stream(ctx, server.QueryRequest{SQL: sql, Session: sess}, func(batch [][]string) error {
			rows = append(rows, batch...)
			return nil
		})
		lat := time.Since(start)
		ot.end(call)
		if err != nil {
			return lat, err
		}
		if ot != nil {
			ot.serverNs = sr.ElapsedMicros * 1e3
			ot.streamRows = int64(len(rows))
			if _, _, err := queryStream(s.eng, sql, ot); err != nil {
				return lat, err
			}
		}
		var got rowSum
		for _, r := range rows {
			got.add(r...)
		}
		want := s.want.stream[t]
		if got != want || sr.Count != want.rows {
			return lat, wrongf("stream w = %d: %d rows (trailer %d), checksum %x; want %d rows, checksum %x", t, got.rows, sr.Count, got.sum, want.rows, want.sum)
		}
		return lat, nil

	case "ddl":
		col := fmt.Sprintf("c%d", c.id)
		sql := fmt.Sprintf("CREATE INDEX ON side (%s)", col)
		if s.indexed[c.id] {
			sql = fmt.Sprintf("DROP INDEX ON side (%s)", col)
		}
		var before fusedscan.EngineStats
		if ot != nil {
			s.ddlMu.Lock()
			defer s.ddlMu.Unlock()
			before = s.eng.Stats()
		}
		call := ot.start("client.call", 0)
		start := time.Now()
		resp, err := s.cl.Query(ctx, server.QueryRequest{SQL: sql, Session: sess})
		lat := time.Since(start)
		ot.end(call)
		if err != nil {
			return lat, err
		}
		if ot != nil {
			after := s.eng.Stats()
			ot.serverNs = resp.ElapsedMicros * 1e3
			ot.ddl = true
			ot.walFsyncs = after.WALFsyncs - before.WALFsyncs
			if after.WALCompactions == before.WALCompactions {
				ot.walBytes = after.WALSizeBytes - before.WALSizeBytes
			}
		}
		s.indexed[c.id] = !s.indexed[c.id]
		if (s.eng.LookupIndex("side", col) != nil) != s.indexed[c.id] {
			return lat, wrongf("%s: index present = %v afterwards", sql, !s.indexed[c.id])
		}
		return lat, nil
	}
	return 0, fmt.Errorf("unknown op kind %d", kind)
}

// probe times the index layer on its own: one equality probe for key.
func (s *shortInst) probe(ot *opTrace, key int) {
	ix := s.eng.LookupIndex("big", "u")
	if ix == nil {
		return
	}
	p := ot.start("index.probe", 0)
	pos, err := ix.Probe(expr.Eq, expr.NewInt(expr.Int32, int64(key)))
	ot.end(p)
	if err == nil {
		ot.probeRows = int64(len(pos))
	}
}

func (s *shortInst) layers(m metrics, ph phases) error {
	var ddlMs []float64
	var fsyncs, walBytes, n int64
	for _, o := range ph.traced.traces {
		if o.ddl {
			ddlMs = append(ddlMs, float64(o.serverNs)/1e6)
			fsyncs += o.walFsyncs
			walBytes += o.walBytes
			n++
		}
	}
	if n > 0 {
		m.set("storage.ddl_ms", median(ddlMs), "ms")
		m.set("storage.wal_fsyncs_per_ddl", float64(fsyncs)/float64(n), "count")
		m.set("storage.wal_bytes_per_ddl", float64(walBytes)/float64(n), "bytes")
	}
	var dirBytes int64
	err := filepath.WalkDir(s.dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			dirBytes += info.Size()
		}
		return err
	})
	if err != nil {
		return err
	}
	m.set("storage.dir_bytes", float64(dirBytes), "bytes")

	// Recovery: reopen the populated directory.
	if err := s.close(); err != nil {
		return err
	}
	start := time.Now()
	eng, err := fusedscan.Open(s.dir)
	if err != nil {
		return err
	}
	m.set("storage.open_s", time.Since(start).Seconds(), "s")
	return eng.Close()
}

func (s *shortInst) close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	var errs []error
	if s.srv != nil {
		sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		errs = append(errs, s.srv.Shutdown(sctx))
		cancel()
		errs = append(errs, <-s.serve)
		s.hc.CloseIdleConnections()
	}
	errs = append(errs, s.eng.Close())
	return errors.Join(errs...)
}

func (s *shortInst) engine() *fusedscan.Engine { return s.eng }
