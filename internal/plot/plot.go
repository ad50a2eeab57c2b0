// Package plot renders small ASCII charts for the experiment CLI:
// multi-row line charts for timelines (Fig. 2, Fig. 12).
package plot

import (
	"fmt"
	"math"
	"strings"
)

// Series is a named sequence of (x, y) samples.
type Series struct {
	Name string
	X, Y []float64
}

// Line renders one or more series as a height-row ASCII chart with a
// y-axis in [0, yMax] (yMax <= 0 autoscales) and width columns. Each
// series gets its own glyph.
func Line(series []Series, width, height int, yMax float64) string {
	if width < 8 {
		width = 8
	}
	if height < 3 {
		height = 3
	}
	glyphs := []byte("*o+x#@")
	if yMax <= 0 {
		for _, s := range series {
			for _, y := range s.Y {
				if y > yMax {
					yMax = y
				}
			}
		}
		if yMax <= 0 {
			yMax = 1
		}
	}
	var xMax float64
	for _, s := range series {
		for _, x := range s.X {
			if x > xMax {
				xMax = x
			}
		}
	}
	if xMax <= 0 {
		xMax = 1
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for si, s := range series {
		g := glyphs[si%len(glyphs)]
		for i := range s.X {
			col := int(s.X[i] / xMax * float64(width-1))
			row := height - 1 - int(math.Min(s.Y[i]/yMax, 1)*float64(height-1))
			if col >= 0 && col < width && row >= 0 && row < height {
				grid[row][col] = g
			}
		}
	}

	var sb strings.Builder
	for r, line := range grid {
		label := "      "
		if r == 0 {
			label = fmt.Sprintf("%5.2f ", yMax)
		} else if r == height-1 {
			label = fmt.Sprintf("%5.2f ", 0.0)
		}
		sb.WriteString(label)
		sb.WriteString("|")
		sb.Write(line)
		sb.WriteString("\n")
	}
	sb.WriteString("      +" + strings.Repeat("-", width) + fmt.Sprintf(" x<=%.1f\n", xMax))
	for si, s := range series {
		sb.WriteString(fmt.Sprintf("      %c %s\n", glyphs[si%len(glyphs)], s.Name))
	}
	return sb.String()
}
