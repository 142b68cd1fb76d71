package sqlparse

import (
	"errors"
	"testing"
)

func TestParseIndexHint(t *testing.T) {
	sel, err := Parse("SELECT /*+ INDEX(t a) */ COUNT(*) FROM t WHERE a < 10")
	if err != nil {
		t.Fatal(err)
	}
	h := sel.Hint
	if h == nil || h.NoIndex || h.Table != "t" || h.Column != "a" {
		t.Fatalf("Hint = %+v, want INDEX(t a)", h)
	}
	if got := h.String(); got != "INDEX(t a)" {
		t.Fatalf("Hint.String() = %q", got)
	}
}

func TestParseNoIndexHint(t *testing.T) {
	sel, err := Parse("SELECT /*+ NO_INDEX */ COUNT(*) FROM t WHERE a < 10")
	if err != nil {
		t.Fatal(err)
	}
	if sel.Hint == nil || !sel.Hint.NoIndex {
		t.Fatalf("Hint = %+v, want NO_INDEX", sel.Hint)
	}
	if got := sel.Hint.String(); got != "NO_INDEX" {
		t.Fatalf("Hint.String() = %q", got)
	}
}

func TestHintErrors(t *testing.T) {
	// Reserved hints fail with the typed error, not silently.
	_, err := Parse("SELECT /*+ JOIN_ORDER(a b) */ COUNT(*) FROM t WHERE a < 10")
	var he *HintError
	if !errors.As(err, &he) || he.Name != "JOIN_ORDER" {
		t.Fatalf("JOIN_ORDER: err = %v, want *HintError{JOIN_ORDER}", err)
	}
	for _, bad := range []string{
		"SELECT /*+ INDEX(t) */ COUNT(*) FROM t WHERE a < 10",
		"SELECT /*+ NO_INDEX(t) */ COUNT(*) FROM t WHERE a < 10",
		"SELECT /*+ INDEX(t a) NO_INDEX */ COUNT(*) FROM t WHERE a < 10",
		"SELECT /*+ FROBNICATE */ COUNT(*) FROM t WHERE a < 10",
	} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("parse accepted %q", bad)
		}
	}
	// A plain (hintless) block comment is still a comment.
	if _, err := Parse("SELECT /* just words */ COUNT(*) FROM t WHERE a < 10"); err != nil {
		t.Fatalf("plain comment: %v", err)
	}
}

func TestHintInNormalizedShape(t *testing.T) {
	base, err := Parse("SELECT COUNT(*) FROM t WHERE a < 10")
	if err != nil {
		t.Fatal(err)
	}
	hinted, err := Parse("SELECT /*+ INDEX(t a) */ COUNT(*) FROM t WHERE a < 10")
	if err != nil {
		t.Fatal(err)
	}
	noidx, err := Parse("SELECT /*+ NO_INDEX */ COUNT(*) FROM t WHERE a < 10")
	if err != nil {
		t.Fatal(err)
	}
	nb, _ := Normalize(base)
	nh, _ := Normalize(hinted)
	nn, _ := Normalize(noidx)
	if nb == nh || nb == nn || nh == nn {
		t.Fatalf("hint variants share a normalized shape:\n%q\n%q\n%q", nb, nh, nn)
	}
	// The same hinted statement with different literals still shares one
	// shape (the literal is parameterized out, the hint is not).
	hinted2, err := Parse("SELECT /*+ INDEX(t a) */ COUNT(*) FROM t WHERE a < 99")
	if err != nil {
		t.Fatal(err)
	}
	if nh2, _ := Normalize(hinted2); nh2 != nh {
		t.Fatalf("same hint, different literal: shapes differ\n%q\n%q", nh, nh2)
	}
}

func TestParseCreateDropIndex(t *testing.T) {
	st, err := ParseStatement("CREATE INDEX ON orders (price)")
	if err != nil {
		t.Fatal(err)
	}
	if st.CreateIndex == nil || st.CreateIndex.Table != "orders" || st.CreateIndex.Column != "price" {
		t.Fatalf("CreateIndex = %+v", st.CreateIndex)
	}
	st, err = ParseStatement("create index idx_p on orders(price)")
	if err != nil {
		t.Fatal(err)
	}
	if st.CreateIndex == nil || st.CreateIndex.Name != "idx_p" {
		t.Fatalf("named CreateIndex = %+v", st.CreateIndex)
	}
	st, err = ParseStatement("DROP INDEX ON orders (price)")
	if err != nil {
		t.Fatal(err)
	}
	if st.DropIndex == nil || st.DropIndex.Table != "orders" || st.DropIndex.Column != "price" {
		t.Fatalf("DropIndex = %+v", st.DropIndex)
	}
	// SELECT still routes through the same entry point.
	st, err = ParseStatement("SELECT COUNT(*) FROM t WHERE a < 10")
	if err != nil {
		t.Fatal(err)
	}
	if st.Select == nil {
		t.Fatalf("Statement = %+v, want Select", st)
	}

	for _, bad := range []string{
		"CREATE INDEX orders (price)",      // missing ON
		"CREATE INDEX ON orders",           // missing column
		"CREATE INDEX ON orders (a, b)",    // composite not supported
		"DROP INDEX ON orders",             // missing column
		"CREATE TABLE orders (price int)",  // not index DDL
		"CREATE INDEX ON select (price)",   // reserved word as table
		"CREATE INDEX ON orders (select)",  // reserved word as column
		"CREATE INDEX ON orders (price) x", // trailing garbage
	} {
		if _, err := ParseStatement(bad); err == nil {
			t.Fatalf("ParseStatement accepted %q", bad)
		}
	}
	// Parse (SELECT-only entry point) must reject DDL.
	if _, err := Parse("CREATE INDEX ON orders (price)"); err == nil {
		t.Fatal("Parse accepted DDL")
	}
}
