package plot

import (
	"strings"
	"testing"
)

func TestLineBasic(t *testing.T) {
	s := []Series{
		{Name: "a", X: []float64{0, 1, 2}, Y: []float64{0, 0.5, 1}},
		{Name: "b", X: []float64{0, 1, 2}, Y: []float64{1, 0.5, 0}},
	}
	out := Line(s, 30, 8, 1)
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Errorf("glyphs missing:\n%s", out)
	}
	if !strings.Contains(out, "a") || !strings.Contains(out, "b") {
		t.Errorf("legend missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// height rows + axis + 2 legend rows.
	if len(lines) != 8+1+2 {
		t.Errorf("line count = %d:\n%s", len(lines), out)
	}
}

func TestLineAutoscaleAndClamp(t *testing.T) {
	s := []Series{{Name: "x", X: []float64{0, 1}, Y: []float64{2, 4}}}
	out := Line(s, 20, 5, 0)
	if !strings.Contains(out, "4.00") {
		t.Errorf("autoscale label missing:\n%s", out)
	}
	// Degenerate inputs must not panic.
	_ = Line(nil, 0, 0, 0)
	_ = Line([]Series{{Name: "e"}}, 10, 4, 1)
}
