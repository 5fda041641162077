package report

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	if err := tb.AddRow("alpha", "1.00"); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddRow("b", "22.50"); err != nil {
		t.Fatal(err)
	}
	s := tb.String()
	if !strings.Contains(s, "Demo") {
		t.Error("title missing")
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	// Title, headers, rule, two rows.
	if len(lines) != 5 {
		t.Fatalf("lines = %d: %q", len(lines), s)
	}
	if !strings.HasPrefix(lines[1], "name ") {
		t.Errorf("header line = %q", lines[1])
	}
	// Columns aligned: "alpha" is the widest first-column cell.
	if !strings.HasPrefix(lines[3], "alpha  ") || !strings.HasPrefix(lines[4], "b      ") {
		t.Errorf("alignment broken:\n%s", s)
	}
}

func TestAddRowValidation(t *testing.T) {
	tb := NewTable("x", "a", "b")
	if err := tb.AddRow("only-one"); err == nil {
		t.Error("cell-count mismatch should fail")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustAddRow should panic on mismatch")
		}
	}()
	tb.MustAddRow("just-one")
}

func TestMarkdown(t *testing.T) {
	tb := NewTable("T", "h1", "h2")
	tb.MustAddRow("a", "b")
	md := tb.Markdown()
	if !strings.Contains(md, "| h1 | h2 |") || !strings.Contains(md, "| a | b |") {
		t.Errorf("markdown = %q", md)
	}
	if !strings.Contains(md, "**T**") {
		t.Error("title missing in markdown")
	}
}

func TestFormatters(t *testing.T) {
	if F(1.23456, 2) != "1.23" {
		t.Error("F broken")
	}
	if Pct(12.345) != "12.35%" {
		t.Error("Pct broken")
	}
	if Norm(1.5) != "1.500" {
		t.Error("Norm broken")
	}
}

func TestUntitledTable(t *testing.T) {
	tb := NewTable("", "a")
	tb.MustAddRow("x")
	if strings.HasPrefix(tb.String(), "\n") {
		t.Error("untitled table should not start with a blank line")
	}
}
