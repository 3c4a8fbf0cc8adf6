package bench

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// profileShares defines the CPU-profile share metrics: the share of all
// samples of the profiled traced slice whose stack matches focus and
// does not match ignore (pprof's -focus/-ignore regexps over function
// names). A pattern that matches no sample reports the metric as absent,
// never as zero, so a renamed function cannot pass for a vanished cost.
var profileShares = []struct{ metric, focus, ignore string }{
	{"core.chi_share", `core\.\(\*chiInstance\)\.solve$`, ""},
	{"core.place_share", `core\.\(\*Problem\)\.place$`, ""},
	// The outer search: SolveContext and the sequential or parallel
	// search loops (whose worker goroutines do not run under SolveContext),
	// minus each assignment's χ and placement work — enumeration, the
	// admissibility bound and the dominance checks.
	{"core.outer_share", `core\.SolveContext$|core\.\(\*search\)\.run`, `core\.\(\*Problem\)\.scheduleForAssignment$`},
	{"stn.share", `internal/stn\.`, ""},
	{"runtime.gc_share", `^runtime\.(gcBgMarkWorker|gcAssistAlloc|bgsweep|bgscavenge)$`, ""},
}

// startProfile starts the CPU profile into path; the returned function
// stops it.
func startProfile(path string) (func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// shareMetrics runs `go tool pprof -top -cum` once per share pattern and
// records the matched share of the profile's samples.
func shareMetrics(profile string, m metricSet) error {
	for _, s := range profileShares {
		args := []string{"tool", "pprof", "-top", "-cum", "-nodefraction=0", "-focus=" + s.focus}
		if s.ignore != "" {
			args = append(args, "-ignore="+s.ignore)
		}
		out, err := exec.Command("go", append(args, profile)...).CombinedOutput()
		if err != nil {
			return fmt.Errorf("go tool pprof: %v: %s", err, out)
		}
		top, err := parsePprofTop(string(out))
		if err != nil {
			return err
		}
		if top.Total > 0 && top.Shown > 0 {
			m.set(s.metric, float64(top.Shown)/float64(top.Total))
		}
	}
	return nil
}

// pprofTop is the parsed text of `go tool pprof -top`.
type pprofTop struct {
	// Total is the profile's sample total; Shown the samples the active
	// filters kept (all of them, with -nodefraction=0).
	Total, Shown time.Duration
	Rows         []pprofRow
}

// pprofRow is one function line of the table.
type pprofRow struct {
	Flat, Cum time.Duration
	Name      string
}

var showingRE = regexp.MustCompile(`^Showing nodes accounting for (\S+), [\d.]+% of (\S+) total`)

// parsePprofTop parses `go tool pprof -top [-cum]` output: the
// "Showing nodes accounting for X, P% of T total" header and the
// flat/flat%/sum%/cum/cum% rows.
func parsePprofTop(out string) (pprofTop, error) {
	var top pprofTop
	header, inTable := false, false
	for _, line := range strings.Split(out, "\n") {
		if m := showingRE.FindStringSubmatch(strings.TrimSpace(line)); m != nil {
			shown, err := parseSampleValue(m[1])
			if err != nil {
				return top, err
			}
			total, err := parseSampleValue(m[2])
			if err != nil {
				return top, err
			}
			top.Shown, top.Total, header = shown, total, true
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 5 && fields[0] == "flat" && fields[1] == "flat%" {
			inTable = true
			continue
		}
		if !inTable || len(fields) < 6 {
			continue
		}
		flat, err := parseSampleValue(fields[0])
		if err != nil {
			return top, fmt.Errorf("pprof row %q: %w", line, err)
		}
		cum, err := parseSampleValue(fields[3])
		if err != nil {
			return top, fmt.Errorf("pprof row %q: %w", line, err)
		}
		name := strings.Join(fields[5:], " ")
		name = strings.TrimSuffix(name, " (inline)")
		top.Rows = append(top.Rows, pprofRow{Flat: flat, Cum: cum, Name: name})
	}
	if !header {
		return top, errors.New("pprof output has no \"Showing nodes accounting for\" header")
	}
	return top, nil
}

// parseSampleValue parses a CPU sample value as pprof prints it: "0",
// "10ms", "1.25s", "2.5mins", "1.2hrs".
func parseSampleValue(s string) (time.Duration, error) {
	if s == "0" {
		return 0, nil
	}
	for _, u := range []struct {
		suffix string
		unit   time.Duration
	}{{"mins", time.Minute}, {"hrs", time.Hour}, {"ms", time.Millisecond}, {"µs", time.Microsecond}, {"us", time.Microsecond}, {"ns", time.Nanosecond}, {"s", time.Second}} {
		if v, ok := strings.CutSuffix(s, u.suffix); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return 0, fmt.Errorf("sample value %q: %w", s, err)
			}
			return time.Duration(f * float64(u.unit)), nil
		}
	}
	return 0, fmt.Errorf("sample value %q has no known unit", s)
}
