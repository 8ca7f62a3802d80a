package macromodel

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSaveAtomic: Save must leave no temp droppings and the written file
// must load back; an existing file must be replaced, never truncated in
// place.
func TestSaveAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "nand2.json")
	m := SynthModel("nand", 2)
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	// Overwrite with a different model; the load must see the new content.
	m3 := SynthModel("nand", 3)
	if err := m3.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumInputs != 3 {
		t.Fatalf("loaded numInputs %d, want 3 (stale content?)", got.NumInputs)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "nand2.json" {
			t.Fatalf("leftover file %q after Save", e.Name())
		}
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode().Perm() != 0o644 {
		t.Fatalf("saved mode %v, want 0644", info.Mode().Perm())
	}
}

// TestSaveIntoMissingDir: the temp file is created in the destination
// directory, so a bad path fails up front with an error, not a stray file.
func TestSaveIntoMissingDir(t *testing.T) {
	m := SynthModel("inv", 1)
	if err := m.Save(filepath.Join(t.TempDir(), "no-such-dir", "inv.json")); err == nil {
		t.Fatal("save into a missing directory succeeded")
	}
}

// TestValidateCatchesBrokenModels mutates a good synthetic model one field
// at a time and requires a validation error naming the offending table.
func TestValidateCatchesBrokenModels(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(m *GateModel)
		wantSub string
	}{
		{"pin out of range", func(m *GateModel) { m.Singles[0].Pin = 7 }, "single[0]"},
		{"short tau axis", func(m *GateModel) {
			s := m.Singles[0]
			s.TauAxis, s.Delay, s.OutTT = s.TauAxis[:1], s.Delay[:1], s.OutTT[:1]
		}, "τ axis"},
		{"sample count mismatch", func(m *GateModel) { m.Singles[0].Delay = m.Singles[0].Delay[:2] }, "delay"},
		{"non-monotone tau axis", func(m *GateModel) {
			s := m.Singles[0]
			s.TauAxis[1] = s.TauAxis[0]
		}, "strictly increasing"},
		{"dual pins coincide", func(m *GateModel) { m.Duals[0].OtherPin = m.Duals[0].RefPin }, "coincide"},
		{"dual missing grid", func(m *GateModel) { m.Duals[0].DelayRatio = nil }, "missing delayRatio"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := SynthModel("nand", 2)
			tc.mutate(m)
			err := m.Validate()
			if err == nil {
				t.Fatal("broken model validated")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
	if err := SynthModel("nand", 3).Validate(); err != nil {
		t.Fatalf("good model rejected: %v", err)
	}
}

// TestLoadRejectsBrokenFile: a structurally broken model on disk fails Load
// with an error naming the file and the defect, before any evaluator runs.
// Each case plants its own defect in the first dual of a good model's JSON.
func TestLoadRejectsBrokenFile(t *testing.T) {
	dir := t.TempDir()
	good, err := json.Marshal(SynthModel("nand", 2))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		file     string
		edit     func(dual map[string]any)
		wantSubs []string
	}{
		// Decoding rejects a grid without three axes (Grid.UnmarshalJSON).
		{"rank2.json", func(dual map[string]any) {
			dual["delayRatio"] = map[string]any{"axes": [][]float64{{0, 1}, {0, 1}}, "values": []float64{1, 2, 3, 4}}
		}, []string{"2 axes, want 3"}},
		// Decoding rejects a non-monotone axis (table.New).
		{"badaxis.json", func(dual map[string]any) {
			ax := dual["delayRatio"].(map[string]any)["axes"].([]any)[1].([]any)
			ax[0], ax[1] = ax[1], ax[0]
		}, []string{"axis 1 must strictly increase"}},
		// A null grid decodes to nil; Validate rejects it.
		{"nullgrid.json", func(dual map[string]any) { dual["delayRatio"] = nil }, []string{"dual[0]", "missing delayRatio"}},
	}
	for _, tc := range cases {
		var doc map[string]any
		if err := json.Unmarshal(good, &doc); err != nil {
			t.Fatal(err)
		}
		tc.edit(doc["duals"].([]any)[0].(map[string]any))
		data, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, tc.file)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = Load(path)
		if err == nil {
			t.Fatalf("%s loaded", tc.file)
		}
		for _, sub := range append(tc.wantSubs, tc.file) {
			if !strings.Contains(err.Error(), sub) {
				t.Errorf("%s: error %q does not mention %q", tc.file, err, sub)
			}
		}
	}

	// Truncated JSON (the crash Save's temp+rename prevents) is rejected.
	path := filepath.Join(dir, "trunc.json")
	if err := os.WriteFile(path, good[:len(good)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("truncated model loaded")
	}
}
