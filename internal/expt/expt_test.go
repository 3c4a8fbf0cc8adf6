package expt

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tab := NewTable("demo", "name", "value")
	tab.Add("alpha", "1")
	tab.Add("beta-long", "22")
	out := tab.String()
	if !strings.Contains(out, "== demo ==") {
		t.Error("title missing")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Title, header, rule, two rows.
	if len(lines) != 5 {
		t.Fatalf("rendered %d lines, want 5:\n%s", len(lines), out)
	}
	// Columns aligned: 'value' header starts at the same offset as row
	// values.
	hdr := lines[1]
	row := lines[3]
	if strings.Index(hdr, "value") != strings.Index(row, "1") {
		t.Errorf("columns misaligned:\n%s", out)
	}
}

func TestTableAddf(t *testing.T) {
	tab := NewTable("", "a", "b")
	tab.Addf("%d\t%.2f", 7, 3.14159)
	out := tab.String()
	if !strings.Contains(out, "7") || !strings.Contains(out, "3.14") {
		t.Errorf("Addf row missing values:\n%s", out)
	}
}

func TestTableRaggedRows(t *testing.T) {
	tab := NewTable("", "a")
	tab.Add("1", "extra")
	tab.Add()
	out := tab.String()
	if !strings.Contains(out, "extra") {
		t.Error("extra cell dropped")
	}
}

func TestWriteCSV(t *testing.T) {
	tab := NewTable("ignored", "a", "b")
	tab.Add("1", "x,y") // comma must be quoted
	tab.Add("2", `say "hi"`)
	var buf strings.Builder
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "a,b\n") {
		t.Errorf("missing header: %q", out)
	}
	if !strings.Contains(out, `"x,y"`) {
		t.Errorf("comma cell not quoted: %q", out)
	}
	if !strings.Contains(out, `"say ""hi"""`) {
		t.Errorf("quote cell not escaped: %q", out)
	}
}
