package sta

import (
	"strings"
	"testing"
)

// TestParseNetlistLineLimit: a line past the limit fails with its line
// number, not a bare scanner error.
func TestParseNetlistLineLimit(t *testing.T) {
	src := "input a\ninput " + strings.Repeat("b", 200) + "\n"
	_, err := parseNetlist(strings.NewReader(src), SynthLibrary(1), 64)
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("over-long line: error %v, want one naming line 2", err)
	}
}
