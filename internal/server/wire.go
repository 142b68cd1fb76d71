// Package server is the query service layer: an HTTP/JSON front end over
// an Engine with sessions, prepared statements backed by the engine's
// shared plan cache, chunked result streaming, and the engine's resource
// governance surfaced as structured HTTP errors (see DESIGN.md §11).
package server

import "fusedscan"

// Wire types for the HTTP/JSON protocol. Every request is a POST with a
// JSON body (or a bare GET for /healthz, /varz and session inspection);
// every response is JSON. Large result sets stream as ndjson when
// requested (see QueryRequest.Stream).

// SessionRequest is the body of POST /session.
type SessionRequest struct {
	// Config selects the session's execution configuration: "default"
	// (simulated AVX-512 path with hardware counters), "native" (SWAR turbo
	// path), or "" to inherit the engine configuration.
	Config string `json:"config,omitempty"`
	// TimeoutMillis caps each of the session's queries (0 = server default).
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
}

// SessionResponse answers POST /session and GET /session/{id}.
type SessionResponse struct {
	Session string `json:"session"`
	Config  string `json:"config,omitempty"`
	// Cumulative session counters.
	Queries   int64 `json:"queries"`
	Rows      int64 `json:"rows"`
	Errors    int64 `json:"errors"`
	Prepared  int   `json:"prepared"`
	CreatedMs int64 `json:"created_unix_ms"`
	IdleMs    int64 `json:"idle_ms"`
}

// QueryRequest is the body of POST /query: one ad-hoc statement,
// optionally parameterized ($n placeholders bound from Args).
type QueryRequest struct {
	SQL string `json:"sql"`
	// Session attaches the query to a session (config, stats, deadline);
	// empty runs sessionless under the engine configuration.
	Session string `json:"session,omitempty"`
	// Config overrides the execution configuration for this query only:
	// "default" or "native". Empty inherits the session/engine config.
	Config string `json:"config,omitempty"`
	// Args bind $n placeholders, $1 first.
	Args []string `json:"args,omitempty"`
	// Stream switches the response to ndjson: a header object, one object
	// per row batch, and a trailer with the final count — constant server
	// memory no matter how many rows qualify.
	Stream bool `json:"stream,omitempty"`
	// TimeoutMillis caps this query (0 = session, then server default).
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
	// UsePlanCache routes the statement through the prepared-plan cache
	// (implied when Args are present).
	UsePlanCache bool `json:"use_plan_cache,omitempty"`
}

// PrepareRequest is the body of POST /prepare. Preparing requires a
// session (one is created implicitly when Session is empty — the response
// carries its id).
type PrepareRequest struct {
	SQL           string `json:"sql"`
	Session       string `json:"session,omitempty"`
	Config        string `json:"config,omitempty"` // config for the implicit session only
	TimeoutMillis int64  `json:"timeout_ms,omitempty"`
}

// PrepareResponse answers POST /prepare.
type PrepareResponse struct {
	Session   string `json:"session"`
	Stmt      string `json:"stmt"`
	NumParams int    `json:"num_params"`
	// Shape is the normalized statement the plan cache is keyed by.
	Shape string `json:"shape"`
}

// ExecuteRequest is the body of POST /execute: run a prepared statement.
type ExecuteRequest struct {
	Session       string   `json:"session"`
	Stmt          string   `json:"stmt"`
	Args          []string `json:"args,omitempty"`
	Stream        bool     `json:"stream,omitempty"`
	TimeoutMillis int64    `json:"timeout_ms,omitempty"`
}

// PerfSummary is the slice of the simulated hardware report the service
// exposes (full counters stay available through the library API).
type PerfSummary struct {
	RuntimeMs         float64 `json:"runtime_ms"`
	Instructions      uint64  `json:"instructions"`
	BranchMispredicts uint64  `json:"branch_mispredicts"`
	DRAMBytes         uint64  `json:"dram_bytes"`
	CompiledOperators int     `json:"compiled_operators"`
	OperatorCacheHits int     `json:"operator_cache_hits"`
}

// QueryResponse answers non-streamed /query and /execute.
type QueryResponse struct {
	Count          int64        `json:"count"`
	Columns        []string     `json:"columns,omitempty"`
	Rows           [][]string   `json:"rows,omitempty"`
	Sum            string       `json:"sum,omitempty"`
	Aggregate      bool         `json:"aggregate,omitempty"`
	Fused          bool         `json:"fused,omitempty"`
	Degraded       bool         `json:"degraded,omitempty"`
	DegradedReason string       `json:"degraded_reason,omitempty"`
	Report         *PerfSummary `json:"report,omitempty"`
	ElapsedMicros  int64        `json:"elapsed_us"`
}

// Streamed responses are ndjson: one StreamHeader, zero or more
// StreamBatch lines, one StreamTrailer. An error after the header arrives
// as a trailer with Error set — the HTTP status is already 200 by then, so
// streaming clients must check the trailer.
type StreamHeader struct {
	Columns []string `json:"columns"`
}

type StreamBatch struct {
	Rows [][]string `json:"rows"`
}

type StreamTrailer struct {
	Done  bool   `json:"done"`
	Count int64  `json:"count"`
	Error string `json:"error,omitempty"`
	// Code is the same stable machine-readable class an ErrorResponse
	// would carry ("timeout", "memory_budget", "canceled", ...), so
	// streaming clients get the typed taxonomy even though the HTTP status
	// was already 200 when the failure happened.
	Code          string `json:"code,omitempty"`
	Stage         string `json:"stage,omitempty"`
	ElapsedMicros int64  `json:"elapsed_us"`
}

// TablesResponse answers GET /tables: serving tables plus the quarantine
// set (tables whose durable snapshot failed verification, with the typed
// reason rendered).
type TablesResponse struct {
	Tables      []string          `json:"tables"`
	Quarantined map[string]string `json:"quarantined,omitempty"`
}

// CreateTableRequest is the body of POST /tables: build and register a
// table column by column. On a durable engine the 200 acknowledgement
// means the table's snapshot and WAL record are fsynced.
type CreateTableRequest struct {
	Name    string       `json:"name"`
	Columns []ColumnSpec `json:"columns"`
}

// ColumnSpec is one column of CreateTableRequest.
type ColumnSpec struct {
	Name string `json:"name"`
	// Type is any supported column type (int8..int64, uint8..uint64,
	// float32, float64); empty defaults to int32.
	Type   string   `json:"type,omitempty"`
	Values []string `json:"values"`
	// NullRows marks these row indexes NULL.
	NullRows []int `json:"null_rows,omitempty"`
}

// TableOpResponse answers POST /tables and DELETE /tables/{name}.
type TableOpResponse struct {
	OK    bool   `json:"ok"`
	Table string `json:"table"`
	Rows  int    `json:"rows,omitempty"`
	// Durable reports whether the operation was persisted (engine opened
	// on a data directory).
	Durable bool `json:"durable,omitempty"`
}

// ScrubResponse answers POST /tables/{name}/scrub after a clean pass.
// A failed verification answers 503 code "quarantined" instead.
type ScrubResponse struct {
	OK     bool   `json:"ok"`
	Table  string `json:"table"`
	Blocks int    `json:"blocks"`
}

// ErrorResponse is the structured failure body for non-2xx responses.
type ErrorResponse struct {
	Error string `json:"error"`
	// Code is a stable machine-readable class: "overloaded",
	// "deadline_exhausted", "memory_budget", "timeout", "invalid_query",
	// "unknown_session", "unknown_stmt", "unknown_table", "bad_request",
	// "conflict", "quarantined", "not_durable", "internal".
	Code string `json:"code"`
	// Stage is where query processing failed ("parse", "plan", "translate",
	// "execute") when known.
	Stage string `json:"stage,omitempty"`
	// RetryAfterMillis accompanies codes "overloaded" and
	// "deadline_exhausted" (the Retry-After header carries the same hint
	// in seconds). It is derived from the admission queue's observed drain
	// rate, so it shrinks as the backlog clears.
	RetryAfterMillis int64 `json:"retry_after_ms,omitempty"`
}

// VarzResponse answers GET /varz: engine counters plus the service's own.
type VarzResponse struct {
	Engine fusedscan.EngineStats `json:"engine"`
	Server ServerStats           `json:"server"`
}

// ServerStats are the service-level counters.
type ServerStats struct {
	Requests        int64 `json:"requests"`
	Errors          int64 `json:"errors"`
	Overloaded      int64 `json:"overloaded"`        // 429s served
	DeadlineRejects int64 `json:"deadline_rejects"`  // 504 deadline_exhausted served
	SlowClientDrops int64 `json:"slow_client_drops"` // streams killed by write-deadline expiry
	StreamedRows    int64 `json:"streamed_rows"`
	ActiveRequests  int64 `json:"active_requests"`
	Sessions        int   `json:"sessions"`
	SessionsCreated int64 `json:"sessions_created"`
	SessionsEvicted int64 `json:"sessions_evicted"`
	UptimeSeconds   int64 `json:"uptime_seconds"`
}
