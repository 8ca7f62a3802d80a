package main

import (
	"math"
	"strings"
	"testing"

	"repro/internal/sta"
)

// TestParseMCSpec: the flag parser names the offending flag in every error
// and splits the corner list.
func TestParseMCSpec(t *testing.T) {
	if spec, err := parseMCSpec(0, 0, 0.05, ""); spec != nil || err != nil {
		t.Fatalf("samples=0 should disable MC, got %+v / %v", spec, err)
	}
	if _, err := parseMCSpec(-4, 0, 0.05, ""); err == nil || !strings.Contains(err.Error(), "-mc-samples") {
		t.Fatalf("negative samples: %v", err)
	}
	for _, sigma := range []float64{-0.1, math.NaN(), math.Inf(1)} {
		if _, err := parseMCSpec(8, 0, sigma, ""); err == nil || !strings.Contains(err.Error(), "-mc-sigma") {
			t.Fatalf("sigma %v: %v", sigma, err)
		}
	}
	spec, err := parseMCSpec(16, 9, 0.02, " slow, typ ,fast ")
	if err != nil {
		t.Fatal(err)
	}
	if spec.samples != 16 || spec.seed != 9 || spec.sigma != 0.02 || len(spec.corners) != 3 ||
		spec.corners[0] != "slow" || spec.corners[2] != "fast" {
		t.Fatalf("spec %+v", spec)
	}
}

// TestRunMCLocal drives the local Monte-Carlo printer end to end over the
// tiny test circuit — the CLI path must survive a real engine run.
func TestRunMCLocal(t *testing.T) {
	c := testCircuit(t)
	evs, err := sta.ParseEvents(c, "a:rise:300:0,b:rise:250:30")
	if err != nil {
		t.Fatal(err)
	}
	spec := &mcSpec{samples: 16, seed: 3, sigma: 0.04, corners: []string{"slow", "typ", "fast"}}
	p := compile(t, c)
	if err := runMC(p, evs, []sta.Mode{sta.Proximity, sta.Conventional}, sta.Options{Workers: 1}, spec); err != nil {
		t.Fatal(err)
	}
	// Unknown corners surface as engine validation errors naming the value.
	bad := &mcSpec{samples: 4, sigma: 0.04, corners: []string{"ss"}}
	if err := runMC(p, evs, []sta.Mode{sta.Proximity}, sta.Options{Workers: 1}, bad); err == nil ||
		!strings.Contains(err.Error(), "corner") {
		t.Fatalf("unknown corner: %v", err)
	}
}
