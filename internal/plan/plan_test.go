package plan_test

import (
	"strings"
	"testing"

	"repro/internal/dataframe"
	"repro/internal/plan"
)

func TestParsePredicate(t *testing.T) {
	cases := []struct {
		expr           string
		col, op, value string
	}{
		{"cluster=chama", "cluster", "=", "chama"},
		{"numhosts<=32", "numhosts", "<=", "32"},
		{"numhosts>=4", "numhosts", ">=", "4"},
		{"launchdate!=0", "launchdate", "!=", "0"},
		{"x<1.5", "x", "<", "1.5"},
		{"x>-2", "x", ">", "-2"},
		{"note=a=b", "note", "=", "a=b"}, // first operator wins, rest is value
		{"<=3", "<", "=", "3"},           // historical quirk: "<=" at 0 skipped, "=" splits
	}
	for _, c := range cases {
		p, err := plan.Parse(c.expr)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.expr, err)
		}
		if p.Column != c.col || p.Op != c.op || p.Value != c.value {
			t.Fatalf("Parse(%q) = {%q %q %q}", c.expr, p.Column, p.Op, p.Value)
		}
		if p.String() != c.expr {
			t.Fatalf("String() = %q, want %q", p.String(), c.expr)
		}
	}
}

func TestParsePredicateErrors(t *testing.T) {
	for _, expr := range []string{"", "nodelimiter", "=value", "!x"} {
		if _, err := plan.Parse(expr); err == nil {
			t.Fatalf("Parse(%q) should fail", expr)
		} else if !strings.Contains(err.Error(), "bad predicate") {
			t.Fatalf("Parse(%q) error = %v", expr, err)
		}
	}
	if _, err := plan.Compile([]string{"a=1", "bogus"}); err == nil {
		t.Fatal("Compile with a bad expression should fail")
	}
}

func TestMatchesSemantics(t *testing.T) {
	p, _ := plan.Parse("x<=3")
	if !p.Matches(dataframe.Int64(3)) || !p.Matches(dataframe.Float64(2.5)) || p.Matches(dataframe.Int64(4)) {
		t.Fatal("numeric compare broken")
	}
	// Numeric literal vs string cell that parses: numeric compare.
	if !p.Matches(dataframe.Str(" 2 ")) {
		t.Fatal("numeric-parsing string cell should compare numerically")
	}
	// Non-numeric literal: lexicographic on the rendered cell.
	q, _ := plan.Parse("name=chama")
	if !q.Matches(dataframe.Str("chama")) || q.Matches(dataframe.Str("quartz")) {
		t.Fatal("string equality broken")
	}
	// Nulls render "" (String/Int/Bool) or "NaN" (Float) and compare as strings.
	r, _ := plan.Parse("x>0")
	if !r.Matches(dataframe.Null(dataframe.Float)) {
		t.Fatal(`null float renders "NaN", which sorts after "0"`)
	}
	if r.Matches(dataframe.Null(dataframe.Int)) {
		t.Fatal(`null int renders "", which sorts before "0"`)
	}
	if p.RHSNumeric() == false {
		t.Fatal("3 should parse as numeric")
	}
	if q.RHSNumeric() {
		t.Fatal("chama should not parse as numeric")
	}
}

func TestDescribe(t *testing.T) {
	preds, err := plan.Compile([]string{"a=1", "b!=x"})
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Describe(preds); got != "a=1,b!=x" {
		t.Fatalf("Describe = %q", got)
	}
}
