package congest

import (
	"math"

	"maest/internal/netlist"
)

// The gridded full-custom variant of the Eq. 13 model.  The paper's
// Full-Custom estimator charges each net of degree D > 2 a
// two-row/one-track channel (Aⱼ = pitch × ⌈D/2⌉ × w̄) and charges
// two-component nets nothing (the devices abut).  To localize that
// demand, the module's N devices are viewed as a virtual grid of g
// rows (g ≈ √N, the §5 1:1 aspect-ratio assumption), the nets scatter
// over the grid rows under the same Eq. 2 uniform model, and each
// inter-row gutter becomes a channel of the standard machinery — with
// D = 2 nets excluded, matching the Eq. 13 footnote.  Analyze with
// gridded set runs it.

// GridRows returns the default virtual row count of the gridded
// full-custom model: ⌈√N⌉, at least 1 — the §5 unit-aspect-ratio grid.
func GridRows(s *netlist.Stats) int {
	g := int(math.Ceil(math.Sqrt(float64(s.N))))
	if g < 1 {
		g = 1
	}
	return g
}
