package bench

import (
	"os"
	"testing"
	"time"
)

// testdata/pprof_top.txt is real `go tool pprof -top -cum -nodefraction=0
// -focus=...` output for a profile of the av-heavy and pipe8 anchors.
func TestParsePprofTop(t *testing.T) {
	b, err := os.ReadFile("testdata/pprof_top.txt")
	if err != nil {
		t.Fatal(err)
	}
	top, err := parsePprofTop(string(b))
	if err != nil {
		t.Fatal(err)
	}
	if top.Total != 6210*time.Millisecond || top.Shown != 3940*time.Millisecond {
		t.Errorf("total %v shown %v, want 6.21s and 3.94s", top.Total, top.Shown)
	}
	if len(top.Rows) != 13 {
		t.Fatalf("%d rows, want 13", len(top.Rows))
	}
	first := top.Rows[0]
	if first.Name != "github.com/netdag/netdag/internal/core.(*Problem).scheduleForAssignment" ||
		first.Flat != 0 || first.Cum != 3940*time.Millisecond {
		t.Errorf("first row = %+v", first)
	}
	inl := top.Rows[5]
	if inl.Name != "github.com/netdag/netdag/internal/core.(*chiInstance).violated" ||
		inl.Flat != 580*time.Millisecond || inl.Cum != 690*time.Millisecond {
		t.Errorf("inline row = %+v", inl)
	}
}

func TestParsePprofTopRejectsOtherText(t *testing.T) {
	if _, err := parsePprofTop("Focus expression matched no samples\n"); err == nil {
		t.Error("output without a header parsed")
	}
	if _, err := parseSampleValue("12 parsecs"); err == nil {
		t.Error("unknown unit parsed")
	}
	for s, want := range map[string]time.Duration{
		"0": 0, "10ms": 10 * time.Millisecond, "1.25s": 1250 * time.Millisecond,
		"2.5mins": 150 * time.Second, "1hrs": time.Hour,
	} {
		if got, err := parseSampleValue(s); err != nil || got != want {
			t.Errorf("parseSampleValue(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
}
