package stats

import (
	"strings"
	"testing"
)

func sample() *Table {
	t := New("E9", "Space accounting", "max words vs s", "n", "s", "maxStored", "ratio")
	t.Add(100, 64, 60, 0.9375)
	t.Add(1000, 256, 250, 0.977)
	return t
}

func TestRenderAlignment(t *testing.T) {
	out := sample().Render()
	if !strings.Contains(out, "== E9: Space accounting ==") {
		t.Fatal("missing title")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// title, note, header, separator, 2 rows
	if len(lines) != 6 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// Header and rows must have equal rendered width.
	if len(lines[2]) != len(lines[3]) {
		t.Fatalf("separator width mismatch:\n%s", out)
	}
}

func TestFloatFormatting(t *testing.T) {
	tb := New("X", "t", "", "v")
	tb.Add(0.123456)
	if tb.Rows[0][0] != "0.123" {
		t.Fatalf("float cell %q", tb.Rows[0][0])
	}
	tb.Add(float32(2.0))
	if tb.Rows[1][0] != "2" {
		t.Fatalf("float32 cell %q", tb.Rows[1][0])
	}
}

func TestCSV(t *testing.T) {
	out := sample().CSV()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "n,s,maxStored,ratio" {
		t.Fatalf("header %q", lines[0])
	}
	if len(lines) != 3 {
		t.Fatalf("rows: %v", lines)
	}
}

func TestEmptyTable(t *testing.T) {
	tb := New("E0", "empty", "", "a")
	out := tb.Render()
	if !strings.Contains(out, "a") {
		t.Fatal("header missing")
	}
}
