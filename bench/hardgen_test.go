package bench

import (
	"bytes"
	"strings"
	"testing"

	"github.com/netdag/netdag/internal/spec"
)

func TestHardTierDeterministic(t *testing.T) {
	a, err := hardTier(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := hardTier(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 2+hardGenerated || len(b) != len(a) {
		t.Fatalf("tier sizes %d and %d, want %d", len(a), len(b), 2+hardGenerated)
	}
	for i := range a {
		if a[i].name != b[i].name || !bytes.Equal(a[i].body, b[i].body) {
			t.Fatalf("spec %d differs between two generations with the same seed", i)
		}
	}
	if a[0].name != "av-heavy" || !bytes.Equal(a[0].body, marshalSpec(avHeavy())) ||
		a[1].name != "pipe8" || !bytes.Equal(a[1].body, marshalSpec(pipe8())) {
		t.Fatal("the av-heavy and pipe8 anchors must lead the tier unchanged")
	}
}

// The run seed rescales WCETs only: the search problems — shapes, rates,
// constraints, objectives — are the same at every seed.
func TestHardTierSeedChangesOnlyWCETs(t *testing.T) {
	a, err := hardTier(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := hardTier(2)
	if err != nil {
		t.Fatal(err)
	}
	energy, wcetDiffers := 0, false
	for i := 2; i < len(a); i++ {
		fa, fb := decodeSpec(t, a[i].body), decodeSpec(t, b[i].body)
		if fa.Objective == "energy" {
			energy++
		}
		for j := range fa.Tasks {
			if fa.Tasks[j].WCET != fb.Tasks[j].WCET {
				wcetDiffers = true
			}
			fa.Tasks[j].WCET, fb.Tasks[j].WCET = 0, 0
		}
		if !bytes.Equal(marshalSpec(fa), marshalSpec(fb)) {
			t.Errorf("%s: seeds 1 and 2 differ beyond WCETs", a[i].name)
		}
		p, err := spec.Build(decodeSpec(t, a[i].body))
		if err != nil {
			t.Fatal(err)
		}
		if n := p.App.NumMessages(); n < hardMinMessages || n > hardMaxMessages {
			t.Errorf("%s: %d messages outside [%d, %d]", a[i].name, n, hardMinMessages, hardMaxMessages)
		}
		if !strings.HasPrefix(a[i].name, "gen-") {
			t.Errorf("generated spec named %q", a[i].name)
		}
	}
	if !wcetDiffers {
		t.Error("seeds 1 and 2 produced identical WCETs")
	}
	if want := hardGenerated / 4; energy != want {
		t.Errorf("%d energy-objective specs, want every 4th (%d)", energy, want)
	}
}

func decodeSpec(t *testing.T, body []byte) *spec.File {
	t.Helper()
	f, err := spec.Decode(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return f
}
